//! Sealed-state parking under TDR: a session squeezed out of the
//! bounded resident set into sealed parking survives a full secure
//! device reset that happens *while it is parked*, and its re-admission
//! recovers through the ordinary re-establishment path — fresh keys, a
//! journal replay, byte-identical device state. Parking never resumes
//! device context; it rebuilds it, which is exactly why a reset in the
//! middle is survivable.

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_sim::fault::{FaultConfig, FaultPlan};
use hix_sim::Payload;

#[test]
fn parked_session_survives_a_secure_reset_and_recovers_via_replay() {
    let mut m = standard_rig(RigOptions::default());
    let mut enclave = GpuEnclave::launch(
        &mut m,
        GpuEnclaveOptions {
            // Two live slots: the third tenant forces the admission
            // controller to park the least-recently-served session.
            max_resident: 2,
            // Transparent recovery is the subject; the repeat-offender
            // policy has its own tests.
            evict_after: u32::MAX,
            ..GpuEnclaveOptions::default()
        },
    )
    .expect("enclave launches");

    // The victim plants data, then goes idle.
    let mut victim = HixSession::connect(&mut m, &mut enclave).expect("victim");
    let plant = victim.malloc(&mut m, &mut enclave, 4096).expect("malloc");
    let secret: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(31) ^ 0xA7) as u8)
        .collect();
    victim
        .memcpy_htod(
            &mut m,
            &mut enclave,
            plant,
            &Payload::from_bytes(secret.clone()),
        )
        .expect("plant");
    let before = victim
        .memcpy_dtoh(&mut m, &mut enclave, plant, 4096)
        .expect("dtoh before parking");
    assert_eq!(before.bytes(), &secret[..]);

    // Two more tenants: the second connect overflows the resident bound
    // and the idle victim is the LRU choice — sealed out, not dropped.
    let mut offender = HixSession::connect(&mut m, &mut enclave).expect("offender");
    let off_a = offender.malloc(&mut m, &mut enclave, 8192).expect("malloc");
    let off_b = offender.malloc(&mut m, &mut enclave, 8192).expect("malloc");
    let _third = HixSession::connect(&mut m, &mut enclave).expect("third tenant");
    assert!(
        enclave.is_parked(victim.id()),
        "the admission bound must park the least-recently-served session"
    );
    assert_eq!(enclave.parked_count(), 1);
    assert!(
        m.trace().metrics().counter("enclave.sessions_parked") >= 1,
        "parking must be visible in the metrics registry"
    );

    // With the victim parked, wedge the device: a context that ignores
    // the kill doorbell escalates the watchdog to a full secure reset
    // (VRAM scrub, re-measurement, every resident session staled).
    m.set_fault_plan(FaultPlan::new(
        0x9A4B_0001,
        FaultConfig {
            gpu_hang_pm: 100,
            gpu_wedge_pm: 1000,
            ..FaultConfig::none()
        },
    ));
    offender
        .memcpy_htod(
            &mut m,
            &mut enclave,
            off_a,
            &Payload::from_bytes(vec![0x5C; 8192]),
        )
        .expect("offender htod");
    let mut ops = 0;
    while m.trace().metrics().counter("watchdog.resets") == 0 {
        offender
            .memcpy_dtod(&mut m, &mut enclave, off_a, off_b, 8192)
            .expect("offender dtod");
        ops += 1;
        assert!(
            ops < 200,
            "the fault plan never escalated to a secure reset"
        );
    }
    m.clear_fault_plan();
    assert!(
        enclave.is_parked(victim.id()),
        "the reset must not disturb the sealed parked record"
    );

    // Re-admission: one resume round-trip unseals the parked record,
    // which re-enters as a stale tombstone — so recovery runs the full
    // re-establishment (fresh keys, journal replay), never a resume of
    // pre-reset device state.
    let reestablished = victim.resume(&mut m, &mut enclave).expect("resume");
    assert!(
        reestablished,
        "a parked session re-admits via re-establishment"
    );
    assert!(!enclave.is_parked(victim.id()));
    assert!(victim.epoch() > 0, "re-admission must mint fresh keys");
    assert!(
        victim.journal_len() > 0,
        "the replay journal drove recovery"
    );
    assert!(
        m.trace().metrics().counter("enclave.sessions_unparked") >= 1,
        "unparking must be visible in the metrics registry"
    );
    // Two live slots, three tenants: re-admitting the victim parks the
    // current LRU resident in turn.
    assert_eq!(
        enclave.parked_count(),
        1,
        "re-admission parks the next LRU victim"
    );

    let after = victim
        .memcpy_dtoh(&mut m, &mut enclave, plant, 4096)
        .expect("dtoh after re-admission");
    assert_eq!(
        after.bytes(),
        &secret[..],
        "journal replay must reconstruct the parked session's state byte-identically"
    );
    // Re-keyed, not resumed: the HtoD nonce counter restarts with the
    // epoch and ends at exactly the fault-free chunk count.
    let chunks = 4096u64.div_ceil(m.model().pipeline_chunk);
    assert_eq!(victim.htod_nonce(), chunks);

    // The offender's own recovery must have left it healthy too —
    // parking and TDR both degrade one tenant, never the fleet.
    let off_back = offender
        .memcpy_dtoh(&mut m, &mut enclave, off_a, 8192)
        .expect("offender dtoh");
    assert_eq!(off_back.bytes(), &[0x5C; 8192][..]);
}

#[test]
fn parked_session_unparks_on_a_different_shard_with_fresh_keys() {
    use hix_core::fabric::{Fabric, FabricOptions};
    use hix_driver::rig::fabric_rig;

    // Two single-GPU shards behind one switch; the session parks on
    // shard 0 and is unparked on shard 1 — a different GPU enclave with
    // its own sealing keys, contexts, and staging arena.
    let (mut m, topo) = fabric_rig(RigOptions::default(), 2, 2);
    let mut fabric = Fabric::launch(&mut m, &topo, FabricOptions::default()).expect("fabric");
    let (sid, mut mover) = fabric.connect(&mut m, 1 << 20, b"mover").expect("connect");
    let from = fabric.shard_of(sid).expect("placed");
    let to = 1 - from;

    let plant = mover
        .malloc(&mut m, fabric.shard_mut(from), 4096)
        .expect("malloc");
    let secret: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(29) ^ 0x5D) as u8)
        .collect();
    mover
        .memcpy_htod(
            &mut m,
            fabric.shard_mut(from),
            plant,
            &Payload::from_bytes(secret.clone()),
        )
        .expect("plant");
    assert_eq!(mover.epoch(), 0, "no recovery has happened yet");

    // Park on the source shard: the context dies, staging is freed with
    // scrub-on-free, and only the sealed 13-byte record remains.
    let old_id = mover.id();
    fabric.park(&mut m, sid).expect("park");
    assert!(fabric.shard(from).is_parked(old_id));

    // Migrate: the source unseals and exports, the target re-seals the
    // record under ITS park key and adopts the endpoint.
    fabric
        .migrate_session(&mut m, sid, &mut mover, to)
        .expect("cross-shard migration");
    assert_eq!(fabric.shard_of(sid), Some(to));
    // Old shard keeps NOTHING of the session: no resident context, no
    // parked record (its staging was scrubbed at park time).
    assert!(!fabric.shard(from).is_parked(old_id));
    assert_eq!(fabric.shard(from).session_count(), 0);
    assert_eq!(fabric.shard(from).parked_count(), 0);
    assert_eq!(m.trace().metrics().counter("enclave.sessions_exported"), 1);
    assert_eq!(m.trace().metrics().counter("enclave.sessions_adopted"), 1);
    // The migrant sits parked on the target shard until re-admission
    // (session ids are per-enclave namespaces; the adopted id comes
    // from the TARGET's id space).
    assert!(fabric.shard(to).is_parked(mover.id()));

    // Re-admission on the new shard runs the full re-establishment:
    // attestation against the new enclave, fresh keys, journal replay.
    let reestablished = mover
        .resume(&mut m, fabric.shard_mut(to))
        .expect("resume on the adopting shard");
    assert!(reestablished, "unpark on a different shard re-establishes");
    assert!(!fabric.shard(to).is_parked(mover.id()));
    assert!(mover.epoch() > 0, "the adopting shard must mint fresh keys");
    assert!(
        mover.journal_len() > 0,
        "the replay journal drove the rebuild"
    );
    let back = mover
        .memcpy_dtoh(&mut m, fabric.shard_mut(to), plant, 4096)
        .expect("dtoh on the adopting shard");
    assert_eq!(
        back.bytes(),
        &secret[..],
        "journal replay must reconstruct the migrated session byte-identically"
    );
}
