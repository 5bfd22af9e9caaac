//! The event trace must attribute virtual time to the right categories
//! during a full secure run — the accounting behind the §5.3.1-style
//! analyses.

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF};
use hix_driver::Gdev;
use hix_sim::{EventKind, Nanos, Payload};
use hix_workloads::exec::{GdevExec, HixExec};
use hix_workloads::matrix::{MatrixAdd, MatrixMul};
use hix_workloads::{all_kernels, Workload};

#[test]
fn hix_run_charges_gpu_crypto_and_dma() {
    let mut m = standard_rig(RigOptions::default());
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
    let dev = s.malloc(&mut m, &mut enclave, 1 << 20).unwrap();
    m.trace().clear();
    let t0 = m.clock().now();
    s.memcpy_htod(
        &mut m,
        &mut enclave,
        dev,
        &Payload::from_bytes(vec![1; 1 << 20]),
    )
    .unwrap();
    // Every kind's total since the clear, against the clock's advance.
    let trace = m.trace().clone();
    let charged = || {
        EventKind::ALL
            .map(|k| trace.total(k))
            .into_iter()
            .sum::<Nanos>()
    };
    assert_eq!(
        charged(),
        m.clock().now() - t0,
        "the HtoD's charges sum to the time it took"
    );
    let _ = s.memcpy_dtoh(&mut m, &mut enclave, dev, 1 << 20).unwrap();
    assert_eq!(
        charged(),
        m.clock().now() - t0,
        "the DtoH's charges sum to the time it took"
    );
    assert!(
        m.trace().total(EventKind::GpuCrypto) > Nanos::ZERO,
        "in-GPU crypto kernels must be accounted"
    );
    assert!(
        m.trace().total(EventKind::Dma) > Nanos::ZERO,
        "DMA wire time must be accounted"
    );
    assert!(
        m.trace().count(EventKind::Mmio) > 0,
        "MMIO traffic happened"
    );
    // The summary renders every active category.
    let summary = m.trace().summary();
    assert!(summary.contains("gpu-crypto"), "{summary}");
    assert!(summary.contains("dma"), "{summary}");
}

#[test]
fn gdev_run_charges_no_gpu_crypto() {
    let mut m = standard_rig(RigOptions::default());
    let pid = m.create_process();
    let mut gdev = Gdev::open(&mut m, pid, GPU_BDF).unwrap();
    let dev = gdev.malloc(&mut m, 1 << 20).unwrap();
    m.trace().clear();
    gdev.memcpy_htod(&mut m, dev, &Payload::from_bytes(vec![1; 1 << 20]))
        .unwrap();
    let _ = gdev.memcpy_dtoh(&mut m, dev, 1 << 20).unwrap();
    assert_eq!(
        m.trace().total(EventKind::GpuCrypto),
        Nanos::ZERO,
        "the insecure baseline runs no crypto kernels"
    );
    assert!(m.trace().total(EventKind::Dma) > Nanos::ZERO);
}

#[test]
fn figure_harness_runs_emit_no_catchall_events() {
    // Every event in a full figure-style run must carry a precise kind:
    // `Other` is a catch-all for uninstrumented code and `Fault` marks
    // device errors — both must stay at zero on the happy path.
    for workload in [&MatrixAdd as &dyn Workload, &MatrixMul] {
        let n = workload.test_size();

        let mut m = standard_rig(RigOptions {
            kernels: all_kernels(),
            ..RigOptions::default()
        });
        let pid = m.create_process();
        let mut gdev = Gdev::open(&mut m, pid, GPU_BDF).unwrap();
        workload
            .run(&mut m, &mut GdevExec::new(&mut gdev), n)
            .unwrap();
        gdev.close(&mut m).unwrap();
        assert_eq!(
            m.trace().count(EventKind::Other),
            0,
            "gdev {}",
            workload.name()
        );
        assert_eq!(
            m.trace().count(EventKind::Fault),
            0,
            "gdev {}",
            workload.name()
        );

        let mut m = standard_rig(RigOptions {
            kernels: all_kernels(),
            ..RigOptions::default()
        });
        let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        workload
            .run(&mut m, &mut HixExec::new(&mut s, &mut enclave), n)
            .unwrap();
        s.close(&mut m, &mut enclave).unwrap();
        assert_eq!(
            m.trace().count(EventKind::Other),
            0,
            "hix {}",
            workload.name()
        );
        assert_eq!(
            m.trace().count(EventKind::Fault),
            0,
            "hix {}",
            workload.name()
        );
    }
}

#[test]
fn injected_faults_emit_fault_kind_events_and_recovery_reconciles() {
    // Under an aggressive fault plan the accounting contract tightens:
    // every injection is a `Fault`-kind event (the `Other` catch-all
    // stays empty even on the unhappy path), the per-kind injection
    // counters tile the total exactly, and the recovery span category
    // reconciles with the recovery counters.
    use hix_sim::fault::{FaultConfig, FaultPlan};
    let mut m = standard_rig(RigOptions::default());
    m.trace().set_recording(true);
    m.set_fault_plan(FaultPlan::new(0xFA17_ACC7, FaultConfig::heavy()));
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
    let dev = s.malloc(&mut m, &mut enclave, 64 << 10).unwrap();
    s.memcpy_htod(
        &mut m,
        &mut enclave,
        dev,
        &Payload::from_bytes(vec![7; 64 << 10]),
    )
    .unwrap();
    let back = s.memcpy_dtoh(&mut m, &mut enclave, dev, 64 << 10).unwrap();
    assert_eq!(
        back.bytes(),
        &vec![7u8; 64 << 10][..],
        "recovery must preserve the data"
    );
    s.close(&mut m, &mut enclave).unwrap();

    let mx = m.trace().metrics();
    let injected = mx.counter("fault.injected");
    assert!(
        injected > 0,
        "the heavy plan must fire on a transfer workload"
    );
    assert_eq!(
        m.trace().count(EventKind::Fault),
        injected,
        "exactly one Fault event per injection"
    );
    assert_eq!(
        m.trace().count(EventKind::Other),
        0,
        "fault handling must never fall back to the Other catch-all"
    );
    let per_kind: u64 = [
        "drop",
        "duplicate",
        "reorder",
        "delay",
        "corrupt",
        "dma_flip",
        "cfg_storm",
        "restart",
    ]
    .iter()
    .map(|kind| mx.counter(&format!("fault.injected.{kind}")))
    .sum();
    assert_eq!(
        per_kind, injected,
        "the per-kind ledger must tile the total"
    );

    // One span per retransmit attempt, one per re-key escalation.
    let retries = mx.counter("recovery.retries");
    let rekeys = mx.counter("recovery.rekeys");
    assert!(
        retries > 0,
        "a heavy plan on transfers must force retransmissions"
    );
    let spans = m.trace().obs().spans();
    let retransmit_spans = spans
        .iter()
        .filter(|s| s.category == "recovery" && s.name == "retransmit")
        .count() as u64;
    let rekey_spans = spans
        .iter()
        .filter(|s| s.category == "recovery" && s.name == "rekey")
        .count() as u64;
    assert_eq!(
        retransmit_spans, retries,
        "one recovery span per retransmit attempt"
    );
    assert_eq!(
        rekey_spans, rekeys,
        "one recovery span per re-key escalation"
    );
    let snapshot = m.trace().obs().snapshot();
    assert!(
        snapshot.contains("recovery.retries_per_op"),
        "the retry histogram must appear in the snapshot:\n{snapshot}"
    );
    assert!(
        snapshot.contains("recovery.backoff_ns"),
        "the backoff histogram must appear in the snapshot:\n{snapshot}"
    );
}

#[test]
fn gpu_fault_ledger_tiles_injected_total_and_watchdog_spans_reconcile() {
    // The device-fault ledger mirrors the channel one: every injected
    // GPU fault bumps `fault.injected`, exactly one per-kind
    // `fault.injected.gpu.*` counter, and emits exactly one
    // `Fault`-kind event. Watchdog work is Security/span territory —
    // one `watchdog/recover` span per recovery incident, one
    // `watchdog/secure_reset` span per reset — and never leaks into
    // the `Other` catch-all.
    use hix_sim::fault::{FaultConfig, FaultPlan};
    let mut m = standard_rig(RigOptions {
        kernels: all_kernels(),
        ..RigOptions::default()
    });
    m.trace().set_recording(true);
    m.set_fault_plan(FaultPlan::new(0xFA17_6B0B, FaultConfig::gpu_heavy()));
    let mut enclave = GpuEnclave::launch(
        &mut m,
        GpuEnclaveOptions {
            // The repeat-offender policy has its own tests; here a
            // wedge-heavy plan must not evict the instrumented session.
            evict_after: u32::MAX,
            ..GpuEnclaveOptions::default()
        },
    )
    .unwrap();
    // Several short-journal rounds: enough command draws to trip the
    // watchdog at heavy rates while keeping each replay cheap.
    for _ in 0..4 {
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        s.load_module(&mut m, &mut enclave, "matrix.mul").unwrap();
        let n = 16u64;
        let bytes = n * n * 4;
        let a = s.malloc(&mut m, &mut enclave, bytes).unwrap();
        let b = s.malloc(&mut m, &mut enclave, bytes).unwrap();
        let c = s.malloc(&mut m, &mut enclave, bytes).unwrap();
        let ones: Vec<u8> = (0..n * n).flat_map(|_| 1i32.to_le_bytes()).collect();
        s.memcpy_htod(&mut m, &mut enclave, a, &Payload::from_bytes(ones.clone()))
            .unwrap();
        s.memcpy_htod(&mut m, &mut enclave, b, &Payload::from_bytes(ones))
            .unwrap();
        s.launch(
            &mut m,
            &mut enclave,
            "matrix.mul",
            &[a.value(), b.value(), c.value(), n],
        )
        .unwrap();
        s.sync(&mut m, &mut enclave).unwrap();
        let back = s.memcpy_dtoh(&mut m, &mut enclave, c, bytes).unwrap();
        let expect: Vec<u8> = (0..n * n).flat_map(|_| (n as i32).to_le_bytes()).collect();
        assert_eq!(
            back.bytes(),
            &expect[..],
            "recovery must preserve the result"
        );
        s.close(&mut m, &mut enclave).unwrap();
    }

    let mx = m.trace().metrics();
    let injected = mx.counter("fault.injected");
    let gpu_kinds = [
        "gpu.hang",
        "gpu.wedge",
        "gpu.lost_completion",
        "gpu.vram_flip",
        "gpu.spurious",
    ];
    let channel_kinds = [
        "drop",
        "duplicate",
        "reorder",
        "delay",
        "corrupt",
        "dma_flip",
        "cfg_storm",
        "restart",
    ];
    let gpu_injected: u64 = gpu_kinds
        .iter()
        .map(|kind| mx.counter(&format!("fault.injected.{kind}")))
        .sum();
    let per_kind: u64 = channel_kinds
        .iter()
        .map(|kind| mx.counter(&format!("fault.injected.{kind}")))
        .sum::<u64>()
        + gpu_injected;
    assert!(
        gpu_injected > 0,
        "the gpu-heavy plan must inject device faults"
    );
    assert_eq!(
        per_kind, injected,
        "the per-kind ledger must tile the total exactly"
    );
    // One Fault event per injection, plus one per *detected* real error
    // (an injected bit-flip in a sealed staging buffer surfaces as a
    // device-side integrity failure — a second, legitimate event for
    // the same injection).
    assert_eq!(
        m.trace().count(EventKind::Fault),
        injected + mx.counter("fault.detected"),
        "Fault events must reconcile with the injected + detected ledgers"
    );
    assert_eq!(m.trace().count(EventKind::Other), 0, "no catch-all events");

    let spans = m.trace().obs().spans();
    let recover_spans = spans
        .iter()
        .filter(|s| s.category == "watchdog" && s.name == "recover")
        .count() as u64;
    let reset_spans = spans
        .iter()
        .filter(|s| s.category == "watchdog" && s.name == "secure_reset")
        .count() as u64;
    // `watchdog.recoveries` counts rebuild *rounds* (a mid-replay fault
    // restarts the round inside one incident); the span wraps the whole
    // incident, so it pairs with completed replays when every incident
    // succeeds — which this test requires via the unwraps above.
    assert_eq!(
        recover_spans,
        mx.counter("watchdog.replays_completed"),
        "one watchdog span per successfully recovered incident"
    );
    assert!(
        mx.counter("watchdog.recoveries") >= recover_spans,
        "rebuild rounds can only exceed incidents, never undercount them"
    );
    assert_eq!(
        reset_spans,
        mx.counter("watchdog.resets"),
        "one secure_reset span per full device reset"
    );
    assert!(
        mx.counter("watchdog.hangs_detected") > 0,
        "a gpu-heavy transfer+launch workload must trip the watchdog"
    );
    let snapshot = m.trace().obs().snapshot();
    assert!(
        snapshot.contains("watchdog.recovery_latency_ns"),
        "the recovery-latency histogram must appear in the snapshot:\n{snapshot}"
    );
}

#[test]
fn span_accounting_reconciles_with_legacy_totals() {
    // The obs span accumulator IS the accounting source of truth: for
    // every category the legacy `Trace::total`/`count` answers and the
    // `span.ns.*`/`span.count.*` snapshot lines must agree exactly.
    let mut m = standard_rig(RigOptions {
        kernels: all_kernels(),
        ..RigOptions::default()
    });
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
    MatrixMul
        .run(
            &mut m,
            &mut HixExec::new(&mut s, &mut enclave),
            MatrixMul.test_size(),
        )
        .unwrap();
    s.close(&mut m, &mut enclave).unwrap();

    let snapshot = m.trace().obs().snapshot();
    for kind in EventKind::ALL {
        let ns = m.trace().total(kind).as_nanos();
        let count = m.trace().count(kind);
        assert_eq!(m.trace().obs().category_ns(kind.as_str()), ns, "{kind}");
        assert_eq!(
            m.trace().obs().category_count(kind.as_str()),
            count,
            "{kind}"
        );
        if count > 0 {
            assert!(
                snapshot.contains(&format!("span.ns.{kind} {ns}")),
                "snapshot must carry the exact {kind} total:\n{snapshot}"
            );
        }
    }
}

#[test]
fn request_attribution_reconciles_on_the_real_stack() {
    // The request attributor is a second view over the same charges:
    // with attribution (and faults) on, attributed + unattributed must
    // equal the category accumulator exactly, every request's charges
    // must sum to its end-to-end window, and the SLO table must tile
    // the request population.
    use hix_sim::fault::{FaultConfig, FaultPlan};
    let mut m = standard_rig(RigOptions {
        kernels: all_kernels(),
        ..RigOptions::default()
    });
    m.set_fault_plan(FaultPlan::new(0xA77B, FaultConfig::heavy()));
    m.trace().obs().set_attributing(true);
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
    MatrixMul
        .run(
            &mut m,
            &mut HixExec::new(&mut s, &mut enclave),
            MatrixMul.test_size(),
        )
        .unwrap();
    s.close(&mut m, &mut enclave).unwrap();

    let obs = m.trace().obs();
    obs.check_attribution().expect("attribution reconciles +-0");
    let requests = obs.requests();
    assert!(requests.len() >= 4, "connect + transfers + launch + close");
    for rec in &requests {
        assert_eq!(
            rec.charged_ns(),
            rec.e2e_ns(),
            "{} (request {}): charges do not tile its window",
            rec.name,
            rec.id
        );
    }
    // Something must actually be charged inside requests: the secure
    // transfers charge crypto and DMA to their own request windows.
    assert!(
        requests.iter().any(|r| r.charged_ns() > 0),
        "no request accumulated any charge"
    );
    let slo = hix_obs::slo_table(&requests);
    assert_eq!(
        slo.iter().map(|r| r.requests).sum::<u64>(),
        requests.len() as u64,
        "SLO rows must tile the request population"
    );
    // Attribution off (the default) keeps begin_request inert: the
    // unattributed ledger still reconciles on a fresh machine.
    let m2 = standard_rig(RigOptions::default());
    assert!(m2.trace().obs().begin_request(0, 1, "noop").is_none());
    m2.trace()
        .obs()
        .check_attribution()
        .expect("reconciles while disabled");
}

#[test]
fn aborted_batches_leak_no_open_spans() {
    // Span hygiene under TDR mid-batch: a gpu-heavy plan fires hangs
    // and context kills while explicit batched frames are in flight.
    // `flush` aborts the interrupted batch tail, recovers through the
    // watchdog, and resubmits — and afterwards *every* span must be
    // closed (the enclave-side `cmdq.submit` frame span, the
    // per-command request windows, the watchdog recovery spans) and
    // request attribution must still reconcile ±0.
    use hix_core::CmdStatus;
    use hix_sim::fault::{FaultConfig, FaultPlan};
    let mut m = standard_rig(RigOptions {
        kernels: all_kernels(),
        ..RigOptions::default()
    });
    m.trace().set_recording(true);
    m.trace().obs().set_attributing(true);
    m.set_fault_plan(FaultPlan::new(0xBA7C_4B02, FaultConfig::gpu_heavy()));
    let mut enclave = GpuEnclave::launch(
        &mut m,
        GpuEnclaveOptions {
            evict_after: u32::MAX,
            ..GpuEnclaveOptions::default()
        },
    )
    .unwrap();
    for round in 0..6 {
        let mut s = HixSession::connect(&mut m, &mut enclave).unwrap();
        let n = 16u64;
        let bytes = n * n * 4;
        let a = s.malloc(&mut m, &mut enclave, bytes).unwrap();
        let b = s.malloc(&mut m, &mut enclave, bytes).unwrap();
        let c = s.malloc(&mut m, &mut enclave, bytes).unwrap();
        let ones: Vec<u8> = (0..n * n).flat_map(|_| 1i32.to_le_bytes()).collect();
        let abcn = [a.value(), b.value(), c.value(), n];
        let ids = vec![
            s.submit_load_module(&mut m, &mut enclave, "matrix.mul")
                .unwrap(),
            s.submit_htod(&mut m, &mut enclave, a, &Payload::from_bytes(ones.clone()))
                .unwrap(),
            s.submit_htod(&mut m, &mut enclave, b, &Payload::from_bytes(ones))
                .unwrap(),
            s.submit_launch(&mut m, &mut enclave, "matrix.mul", &abcn)
                .unwrap(),
            s.submit_sync(&mut m, &mut enclave).unwrap(),
        ];
        s.flush(&mut m, &mut enclave)
            .unwrap_or_else(|e| panic!("round {round}: flush under gpu faults: {e}"));
        let comps = s.take_completions();
        assert_eq!(comps.iter().map(|(id, _)| *id).collect::<Vec<_>>(), ids);
        for (id, status) in &comps {
            assert_eq!(status, &CmdStatus::Ok, "round {round}: command {id} failed");
        }
        let back = s.memcpy_dtoh(&mut m, &mut enclave, c, bytes).unwrap();
        let expect: Vec<u8> = (0..n * n).flat_map(|_| (n as i32).to_le_bytes()).collect();
        assert_eq!(
            back.bytes(),
            &expect[..],
            "recovery must preserve the result"
        );
        s.close(&mut m, &mut enclave).unwrap();
    }
    let mx = m.trace().metrics();
    assert!(
        mx.counter("watchdog.hangs_detected") > 0,
        "the gpu-heavy plan must trip the watchdog mid-run"
    );
    assert!(
        mx.counter("cmdq.batch_aborts") > 0,
        "at least one TDR must land mid-batch for this test to bite"
    );
    let spans = m.trace().obs().spans();
    let open: Vec<_> = spans.iter().filter(|s| s.is_open()).collect();
    assert!(
        open.is_empty(),
        "aborted batches leaked open spans: {open:?}"
    );
    m.trace()
        .obs()
        .check_attribution()
        .expect("attribution reconciles +-0 after mid-batch TDRs");
}

#[test]
fn security_events_fire_on_lockdown_and_denials() {
    let mut m = standard_rig(RigOptions::default());
    m.trace().clear();
    let _enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).unwrap();
    let after_launch = m.trace().count(EventKind::Security);
    assert!(after_launch >= 2, "EGCREATE + lockdown + init events");
    // A denied attacker access adds one more.
    let attacker = m.create_process();
    let va = hix_driver::driver::os_map_bar0(&mut m, attacker, GPU_BDF, 1);
    let _ = m.read(attacker, va, &mut [0u8; 8]);
    assert!(m.trace().count(EventKind::Security) > after_launch);
}
