//! The multi-GPU enclave fabric: per-shard trust establishment over a
//! switched topology, topology-aware placement, and cross-shard
//! migration of parked sessions. Shard-local TDR containment (one GPU's
//! secure reset never stalls a peer shard) is `fabric_report`'s
//! contract, which the tier-1 ledger gate runs.

use hix_core::fabric::{Fabric, FabricOptions};
use hix_driver::rig::{fabric_rig, RigOptions};

#[test]
fn fabric_launches_one_shard_per_gpu_and_verifies_every_path() {
    let (mut m, topo) = fabric_rig(RigOptions::default(), 4, 2);
    let fabric = Fabric::launch(&mut m, &topo, FabricOptions::default()).expect("fabric");
    assert_eq!(fabric.shard_count(), 4);
    assert!(fabric.verify_all_paths(&m), "every routing path verifies");
    for i in 0..4 {
        assert_eq!(fabric.shard(i).bdf(), topo.gpus[i].bdf);
        assert_eq!(fabric.switch_of(i), topo.gpus[i].switch);
        assert!(
            m.hix_state().gecs(topo.gpus[i].bdf).is_some(),
            "shard {i} owns its GPU"
        );
    }
    // Per-GPU BIOS pinning is real: all four digests differ pairwise.
    for a in 0..4 {
        for b in a + 1..4 {
            assert_ne!(
                fabric.shard(a).bios_digest(),
                fabric.shard(b).bios_digest(),
                "shards {a}/{b} share a BIOS digest"
            );
        }
    }
}

#[test]
fn placement_spreads_across_switches_before_doubling_up() {
    let (mut m, topo) = fabric_rig(RigOptions::default(), 4, 2);
    let mut fabric = Fabric::launch(&mut m, &topo, FabricOptions::default()).expect("fabric");
    let mut placed = Vec::new();
    for tag in [b"t0".as_slice(), b"t1", b"t2", b"t3"] {
        let (sid, _session) = fabric.connect(&mut m, 1 << 20, tag).expect("connect");
        placed.push(fabric.shard_of(sid).unwrap());
    }
    // Least-loaded, tie-broken by switch load: the second tenant jumps
    // to the other switch, not to shard 0's neighbor.
    assert_eq!(placed, vec![0, 2, 1, 3]);
    assert_eq!(m.trace().metrics().counter("fabric.placements"), 4);
}

#[test]
fn work_stealing_plans_move_parked_sessions_toward_idle_shards() {
    let (mut m, topo) = fabric_rig(RigOptions::default(), 2, 1);
    let mut fabric = Fabric::launch(
        &mut m,
        &topo,
        FabricOptions {
            max_resident: 2,
            ..FabricOptions::default()
        },
    )
    .expect("fabric");

    // Load shard 0 with three tenants (one gets parked by admission),
    // then drain shard 1 so the imbalance is 3 vs 0.
    let mut sids = Vec::new();
    for tag in [b"a".as_slice(), b"b", b"c", b"d"] {
        let (sid, session) = fabric.connect(&mut m, 1 << 20, tag).expect("connect");
        sids.push((sid, session));
    }
    // Placement alternates 0,1,0,1; close both shard-1 tenants.
    let mut on_shard1: Vec<_> = sids
        .iter()
        .enumerate()
        .filter(|(_, (sid, _))| fabric.shard_of(*sid) == Some(1))
        .map(|(i, _)| i)
        .collect();
    on_shard1.reverse();
    assert_eq!(on_shard1.len(), 2);
    for i in on_shard1 {
        let (sid, session) = sids.remove(i);
        let enclave = fabric.enclave_for(sid).expect("placed");
        session.close(&mut m, enclave).expect("close");
        fabric.forget(sid);
    }
    // Park one of the remaining shard-0 tenants to make it stealable.
    fabric.park(&mut m, sids[0].0).expect("park");

    let steals = fabric.plan_steals();
    assert_eq!(
        steals,
        vec![(sids[0].0, 1)],
        "the parked session moves to the idle shard"
    );
    let (sid, ref mut session) = sids[0];
    fabric
        .migrate_session(&mut m, sid, session, 1)
        .expect("work-stealing migration");
    assert_eq!(fabric.shard_of(sid), Some(1));
    assert_eq!(m.trace().metrics().counter("fabric.migrations"), 1);
    assert!(
        fabric.plan_steals().is_empty(),
        "one move balances 2-vs-1; no further steals"
    );
    // The stolen session serves on its new shard after re-establishment.
    let resumed = session
        .resume(&mut m, fabric.shard_mut(1))
        .expect("resume on the stealing shard");
    assert!(resumed, "migration re-establishes with fresh keys");
}
