//! Multi-tenant cloud GPU: several user enclaves share one GPU through
//! the resident GPU enclave (§4.5 — one GPU context per tenant, unlike
//! pre-Volta MPS which merges everyone into a single address space).
//!
//! Shows: per-tenant isolation on the device via the *batched* command
//! queue (submit + one flush per tenant), doorbell-wake amortization,
//! scrub-on-free, and the Figure 8/9 multi-user timing model.
//!
//! ```sh
//! cargo run -p hix-bench --example multi_tenant
//! ```

use hix_core::multiuser::{run_scaled, Mode, SchedulerConfig, SessionSpec};
use hix_core::{CmdStatus, GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_sim::{CostModel, Payload};
use hix_workloads::rodinia::hotspot::Hotspot;
use hix_workloads::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut machine = standard_rig(RigOptions::default());
    let mut enclave = GpuEnclave::launch(&mut machine, GpuEnclaveOptions::default())?;

    // Three tenants connect; each gets its own GPU context and its own
    // session keys from an independent three-party exchange.
    let mut tenants = Vec::new();
    for name in ["alice", "bob", "carol"] {
        let session =
            HixSession::connect_with(&mut machine, &mut enclave, 1 << 20, name.as_bytes())?;
        println!(
            "tenant {name:>5}: session {} (ctx {:?})",
            session.id(),
            enclave.session_ctx(session.id()).unwrap()
        );
        tenants.push(session);
    }
    assert_eq!(enclave.session_count(), 3);

    // Each tenant writes its own pattern through the batched command
    // queue: four writes and a barrier ride ONE submission frame (one
    // doorbell, one wake) instead of five request/response roundtrips.
    let mut buffers = Vec::new();
    let mut submitted = 0u64;
    // Allocations stay synchronous — each tenant needs its address to
    // build the rest of the batch against.
    for session in tenants.iter_mut() {
        buffers.push(session.malloc(&mut machine, &mut enclave, 4 * 4096)?);
    }
    let wakes_before = machine.trace().metrics().counter("cmdq.wakes");
    for (i, session) in tenants.iter_mut().enumerate() {
        let dev = buffers[i];
        let fill = vec![0x10 * (i as u8 + 1); 4096];
        // One staged write plus three device-side fills of the same
        // pattern — five commands, one frame, one doorbell.
        session.submit_htod(&mut machine, &mut enclave, dev, &Payload::from_bytes(fill))?;
        for chunk in 1..4u64 {
            session.submit_memset(
                &mut machine,
                &mut enclave,
                dev.offset(chunk * 4096),
                4096,
                0x10 * (i as u8 + 1),
            )?;
        }
        session.submit_sync(&mut machine, &mut enclave)?;
        submitted += 5;
        session.flush(&mut machine, &mut enclave)?;
        for (id, status) in session.take_completions() {
            assert!(matches!(status, CmdStatus::Ok), "command {id:?} failed");
        }
    }
    let wakes = machine.trace().metrics().counter("cmdq.wakes") - wakes_before;
    for (i, session) in tenants.iter_mut().enumerate() {
        let back = session.memcpy_dtoh(&mut machine, &mut enclave, buffers[i], 4 * 4096)?;
        assert!(back.bytes().iter().all(|&b| b == 0x10 * (i as u8 + 1)));
    }
    println!("cross-tenant isolation verified: each context sees only its own data");

    // Doorbell amortization: the queue woke the GPU enclave once per
    // flushed frame, not once per command.
    println!(
        "batched submission: {submitted} commands in {wakes} wakes \
         ({:.1} commands per doorbell)",
        submitted as f64 / wakes.max(1) as f64
    );
    assert!(wakes < submitted, "batching must amortize doorbell wakes");

    // A tenant frees memory; the trusted runtime scrubs it, so the next
    // tenant allocation can never observe residue (§4.5). Frees ride the
    // same queue.
    let alice = &mut tenants[0];
    alice.submit_free(&mut machine, &mut enclave, buffers[0])?;
    alice.flush(&mut machine, &mut enclave)?;
    alice.take_completions();
    println!("alice's buffer freed and scrubbed on the GPU");

    for session in tenants {
        session.close(&mut machine, &mut enclave)?;
    }
    println!(
        "all sessions closed; {} contexts remain",
        enclave.session_count()
    );

    // Finally, the Figure 8/9 timing question: what does sharing cost?
    let model = CostModel::paper();
    let config = SchedulerConfig::new(&model);
    let spec = SessionSpec::new(Hotspot.profile(&model).task_spec());
    println!("\nconcurrent-tenant timing (Hotspot profile):");
    for users in [1, 2, 4] {
        let sessions = vec![spec.clone(); users];
        let g = run_scaled(&model, &sessions, Mode::Gdev, &config, None);
        let h = run_scaled(&model, &sessions, Mode::Hix, &config, None);
        println!(
            "  {users} user(s): Gdev {} | HIX {} ({} ctx switches)",
            g.makespan, h.makespan, h.ctx_switches
        );
    }
    Ok(())
}
