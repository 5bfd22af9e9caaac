//! The multi-GPU **enclave fabric**: N [`GpuEnclave`] shards — one per
//! GPU, exactly as §5.6/§7 require (no GPU is shared, no peer-to-peer)
//! — over a switched PCIe topology, with fabric-level session lifecycle
//! on top:
//!
//! * **Placement** — connects land on the least-loaded shard,
//!   tie-broken by switch load then index, so traffic spreads across
//!   both GPUs and switches deterministically.
//! * **Migration** — a parked session can move between shards
//!   ([`Fabric::migrate_session`]): the source shard exports its
//!   sealed record ([`GpuEnclave::export_parked`]), the target adopts
//!   it under a fresh id and its own seal key
//!   ([`GpuEnclave::adopt_session`]), and resumption re-establishes
//!   from the journal with keys negotiated against the *new* shard.
//!   Work-stealing ([`Fabric::plan_steals`]) is a policy over this one
//!   mechanism.
//! * **Containment** — the TDR watchdog's secure reset is inherently
//!   shard-local (each enclave owns one device, one BDF);
//!   [`Fabric::reset_blast_radius`] is the probe that proves it, and
//!   the lockdown chain stays correct because the PCIe layer refcounts
//!   shared bridges: a bridge on two shards' routing paths unlocks only
//!   when the *last* shard releases.
//!
//! The model-level half ([`run_fabric_scaled`]) partitions a tenant
//! population across shards with the same placement policy and runs
//! each shard's weighted-fair schedule independently — which is exactly
//! the degraded-mode claim: a resetting shard stretches only its own
//! timeline, and the peers' outcomes are bit-identical to a fabric with
//! no reset at all.
//!
//! Everything is surfaced through hix-obs under the `fabric.*`
//! namespace: `fabric.placements`, `fabric.migrations`,
//! `fabric.reset_blast_radius`, and per-shard `fabric.shard<i>.*`
//! counters.

use std::collections::BTreeMap;

use hix_crypto::sha256;
use hix_driver::rig::FabricTopology;
use hix_gpu::device::build_bios;
use hix_obs::{Counter, Metrics};
use hix_platform::Machine;
use hix_sim::{CostModel, Nanos};

use crate::gpu_enclave::{GpuEnclave, GpuEnclaveOptions, HixCoreError, SessionId};
use crate::multiuser::{run_scaled, Mode, ScaleOutcome, SchedulerConfig, SessionSpec};
use crate::runtime::HixSession;

/// Fabric-wide session handle. Shard-level [`SessionId`]s are only
/// unique per enclave (each shard numbers from 1), so the fabric issues
/// its own ids and tracks where each session currently lives.
pub type FabricSessionId = u64;

/// Options for [`Fabric::launch`], applied to every shard.
#[derive(Debug, Clone)]
pub struct FabricOptions {
    /// Per-shard repeat-offender budget (see
    /// [`GpuEnclaveOptions::evict_after`]). Eviction is deliberately
    /// shard-local: an offender banned on one shard is not banned
    /// fabric-wide, but migration refuses to move a session onto a
    /// shard that evicted its user.
    pub evict_after: u32,
    /// Per-shard admission bound (see
    /// [`GpuEnclaveOptions::max_resident`]).
    pub max_resident: usize,
    /// Base DRBG seed; each shard extends it with its index so no two
    /// shards share an ephemeral-secret stream.
    pub seed: Vec<u8>,
}

impl Default for FabricOptions {
    fn default() -> Self {
        FabricOptions {
            evict_after: 3,
            max_resident: usize::MAX,
            seed: b"hix-fabric".to_vec(),
        }
    }
}

struct Shard {
    enclave: GpuEnclave,
    switch: usize,
}

struct Placement {
    shard: usize,
    session: SessionId,
}

/// The N-GPU enclave fabric (see the module docs).
pub struct Fabric {
    shards: Vec<Shard>,
    placements: BTreeMap<FabricSessionId, Placement>,
    next: FabricSessionId,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("shards", &self.shards.len())
            .field("sessions", &self.placements.len())
            .finish()
    }
}

impl Fabric {
    /// Launches one GPU enclave per GPU of a [`fabric_rig`]
    /// (`hix_driver::rig::fabric_rig`) topology. Each shard pins *its
    /// own* GPU's BIOS digest (derived from the slot's BIOS seed) and
    /// verifies its own routing path — a fabric never shares a trust
    /// premise between shards.
    ///
    /// # Errors
    ///
    /// Propagates the first shard launch failure (BIOS mismatch, path
    /// verification, ownership conflicts).
    pub fn launch(
        machine: &mut Machine,
        topology: &FabricTopology,
        options: FabricOptions,
    ) -> Result<Fabric, HixCoreError> {
        let gpus = [("gpus", topology.gpus.len() as u64)];
        let shards = machine.in_span("fabric", "launch", &gpus, |machine| {
            let mut shards = Vec::with_capacity(topology.gpus.len());
            for (i, slot) in topology.gpus.iter().enumerate() {
                let mut seed = options.seed.clone();
                seed.extend_from_slice(&(i as u32).to_le_bytes());
                let enclave = GpuEnclave::launch(
                    machine,
                    GpuEnclaveOptions {
                        bdf: slot.bdf,
                        expected_bios: Some(sha256::digest(&build_bios(slot.bios_seed))),
                        sealed_trust: None,
                        seed,
                        evict_after: options.evict_after,
                        max_resident: options.max_resident,
                    },
                )?;
                shards.push(Shard {
                    enclave,
                    switch: slot.switch,
                });
            }
            Ok::<_, HixCoreError>(shards)
        })?;
        machine
            .trace()
            .metrics()
            .add(Counter::FabricShardsLaunched, shards.len() as u64);
        Ok(Fabric {
            shards,
            placements: BTreeMap::new(),
            next: 1,
        })
    }

    /// Number of shards (= GPUs).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard's enclave, immutably.
    pub fn shard(&self, shard: usize) -> &GpuEnclave {
        &self.shards[shard].enclave
    }

    /// The shard's enclave — sessions placed on it run their ops
    /// against this handle, exactly as in the single-GPU API.
    pub fn shard_mut(&mut self, shard: usize) -> &mut GpuEnclave {
        &mut self.shards[shard].enclave
    }

    /// The switch the shard sits behind.
    pub fn switch_of(&self, shard: usize) -> usize {
        self.shards[shard].switch
    }

    /// Re-verifies the MMIO-lockdown chain of **every** shard's routing
    /// path independently. True only if each shard's snapshot still
    /// matches the digest pinned at its launch — one drifted bridge
    /// fails exactly the shards routing through it.
    pub fn verify_all_paths(&self, machine: &Machine) -> bool {
        self.shards.iter().all(|s| s.enclave.verify_path(machine))
    }

    /// A shard's current load: resident plus parked sessions.
    pub fn load(&self, shard: usize) -> usize {
        let s = &self.shards[shard];
        s.enclave.session_count() + s.enclave.parked_count()
    }

    /// Topology- and load-aware placement over the shards' current
    /// loads: the least-loaded shard, tie-broken by the load behind its
    /// switch, then by index.
    pub fn place(&self) -> usize {
        let load: Vec<usize> = (0..self.shards.len()).map(|i| self.load(i)).collect();
        let switch_of: Vec<usize> = self.shards.iter().map(|s| s.switch).collect();
        least_loaded(&load, &switch_of)
    }

    /// Connects a new user session on the shard [`Fabric::place`]
    /// selects. Returns the fabric-wide handle plus the runtime session
    /// (already bound to the right shard-level id).
    ///
    /// # Errors
    ///
    /// Propagates attestation, channel, and driver failures from the
    /// placed shard.
    pub fn connect(
        &mut self,
        machine: &mut Machine,
        shared_len: u64,
        seed: &[u8],
    ) -> Result<(FabricSessionId, HixSession), HixCoreError> {
        let shard = self.place();
        let session =
            HixSession::connect_with(machine, &mut self.shards[shard].enclave, shared_len, seed)?;
        let fid = self.next;
        self.next += 1;
        self.placements.insert(
            fid,
            Placement {
                shard,
                session: session.id(),
            },
        );
        let metrics = machine.trace().metrics().clone();
        metrics.inc(Counter::FabricPlacements);
        metrics.add_named(&format!("fabric.shard{shard}.placements"), 1);
        Ok((fid, session))
    }

    /// The shard a fabric session currently lives on.
    pub fn shard_of(&self, sid: FabricSessionId) -> Option<usize> {
        self.placements.get(&sid).map(|p| p.shard)
    }

    /// The enclave a fabric session currently lives on — the handle its
    /// ops must be driven against.
    pub fn enclave_for(&mut self, sid: FabricSessionId) -> Option<&mut GpuEnclave> {
        let shard = self.placements.get(&sid)?.shard;
        Some(&mut self.shards[shard].enclave)
    }

    /// Parks a fabric session on its current shard (sealed state, no
    /// device residue) — the precondition for migrating it.
    ///
    /// # Errors
    ///
    /// Unknown handles are a protocol error; park failures propagate.
    pub fn park(
        &mut self,
        machine: &mut Machine,
        sid: FabricSessionId,
    ) -> Result<(), HixCoreError> {
        let (shard, session) = self.placement(sid)?;
        self.shards[shard].enclave.park_session(machine, session)
    }

    /// Where a fabric session lives: `(shard, shard-level id)`.
    fn placement(&self, sid: FabricSessionId) -> Result<(usize, SessionId), HixCoreError> {
        let p = self
            .placements
            .get(&sid)
            .ok_or_else(|| HixCoreError::Protocol(format!("unknown fabric session {sid}")))?;
        Ok((p.shard, p.session))
    }

    /// Migrates a session to shard `to` and rebinds its runtime: parks it
    /// on its current shard if still resident, exports the sealed
    /// record, has `to` adopt it under a fresh id, and points `session`
    /// at that id ([`HixSession::rebind`]). The session resumes on the
    /// new shard through the ordinary re-establishment path: fresh keys
    /// with the new shard, fresh context, journal replay.
    ///
    /// # Errors
    ///
    /// Unknown handles and same-shard moves are protocol errors;
    /// [`HixCoreError::Evicted`] if the target shard banned the user.
    /// Panics (programming error) if `session` is not the runtime of
    /// `sid`'s current placement.
    pub fn migrate_session(
        &mut self,
        machine: &mut Machine,
        sid: FabricSessionId,
        session: &mut HixSession,
        to: usize,
    ) -> Result<(), HixCoreError> {
        let (from, placed) = self.placement(sid)?;
        assert_eq!(
            placed,
            session.id(),
            "runtime session does not match the fabric placement"
        );
        if to == from {
            return Err(HixCoreError::Protocol(format!(
                "session {sid} already lives on shard {to}"
            )));
        }
        let attrs = [("from", from as u64), ("to", to as u64)];
        let new_id = machine.in_span("fabric", "migrate", &attrs, |machine| {
            if !self.shards[from].enclave.is_parked(placed) {
                self.shards[from].enclave.park_session(machine, placed)?;
            }
            let migrated = self.shards[from].enclave.export_parked(machine, placed)?;
            self.shards[to].enclave.adopt_session(machine, migrated)
        })?;
        self.placements.insert(
            sid,
            Placement {
                shard: to,
                session: new_id,
            },
        );
        let metrics = machine.trace().metrics().clone();
        metrics.inc(Counter::FabricMigrations);
        metrics.add_named(&format!("fabric.shard{to}.migrations_in"), 1);
        metrics.add_named(&format!("fabric.shard{from}.migrations_out"), 1);
        session.rebind(new_id);
        Ok(())
    }

    /// Work-stealing plan: while the most- and least-loaded shards
    /// differ by more than one session, move a parked session from the
    /// former to the latter. Only *parked* sessions are steal
    /// candidates (their state is sealed and portable; residents would
    /// pay a park first for no reason). Returns `(handle, target
    /// shard)` moves in application order; the caller applies each with
    /// [`Fabric::migrate_session`] so the runtimes learn their new ids.
    pub fn plan_steals(&self) -> Vec<(FabricSessionId, usize)> {
        let mut load: Vec<usize> = (0..self.shards.len()).map(|i| self.load(i)).collect();
        // Parked sessions per shard, in handle order (determinism).
        let mut parked: Vec<Vec<FabricSessionId>> = vec![Vec::new(); self.shards.len()];
        for (&sid, p) in &self.placements {
            if self.shards[p.shard].enclave.is_parked(p.session) {
                parked[p.shard].push(sid);
            }
        }
        let mut moves = Vec::new();
        loop {
            let (mut hi, mut lo) = (0, 0);
            for i in 0..load.len() {
                if load[i] > load[hi] {
                    hi = i;
                }
                if load[i] < load[lo] {
                    lo = i;
                }
            }
            if load[hi] <= load[lo] + 1 {
                break;
            }
            let Some(sid) = parked[hi].pop() else {
                break; // overload is all-resident; nothing portable
            };
            moves.push((sid, lo));
            load[hi] -= 1;
            load[lo] += 1;
        }
        moves
    }

    /// The containment probe: after a secure reset on `resetting`,
    /// counts sessions on *peer* shards whose context the reset staled.
    /// Because each enclave owns exactly one device and resets only its
    /// own BDF, this must be 0 — every non-zero count is a containment
    /// violation. The count is also added to the
    /// `fabric.reset_blast_radius` counter so the soak's metric
    /// snapshot pins it at zero.
    pub fn reset_blast_radius(&self, machine: &Machine, resetting: usize) -> u64 {
        let mut blast = 0u64;
        for (shard_idx, _) in self.shards.iter().enumerate() {
            if shard_idx == resetting {
                continue;
            }
            for p in self.placements.values() {
                if p.shard == shard_idx
                    && self.shards[shard_idx]
                        .enclave
                        .session_stale(p.session)
                        .unwrap_or(false)
                {
                    blast += 1;
                }
            }
        }
        machine
            .trace()
            .metrics()
            .add(Counter::FabricResetBlastRadius, blast);
        blast
    }

    /// Total sessions the fabric tracks (resident + parked, all
    /// shards).
    pub fn session_count(&self) -> usize {
        self.placements.len()
    }

    /// Forgets a closed session's placement (the shard-side state is
    /// already gone once the runtime's `close` returned).
    pub fn forget(&mut self, sid: FabricSessionId) {
        self.placements.remove(&sid);
    }
}

/// The placement policy shared by [`Fabric::place`] and
/// [`run_fabric_scaled`]: the least-loaded shard, tie-broken by total
/// load behind its switch (spread across switches before doubling up
/// behind one), then by index (determinism). `load[i]` is shard `i`'s
/// load and `switch_of[i]` the switch it sits behind.
fn least_loaded(load: &[usize], switch_of: &[usize]) -> usize {
    let mut switch_load = vec![0usize; switch_of.iter().map(|&s| s + 1).max().unwrap_or(0)];
    for (shard, &l) in load.iter().enumerate() {
        switch_load[switch_of[shard]] += l;
    }
    (0..load.len())
        .min_by_key(|&i| (load[i], switch_load[switch_of[i]], i))
        .expect("fabric has at least one shard")
}

/// Outcome of a [`run_fabric_scaled`] model run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricScaleOutcome {
    /// Fabric makespan: the slowest shard's makespan (shards serve
    /// independently — that is the whole point).
    pub makespan: Nanos,
    /// Per-shard schedules, in shard order.
    pub per_shard: Vec<ScaleOutcome>,
    /// Which shard each input session was placed on.
    pub assignment: Vec<usize>,
}

/// The model-level fabric: places `specs` across `n_shards` shards with
/// the fabric's least-loaded/least-switch placement (`switch_of` maps
/// shard → switch) and runs each shard's weighted-fair schedule
/// independently through [`run_scaled`]. When `resetting` names a
/// shard, the first session placed there additionally carries one full
/// secure-reset burden (`tdr_resets = 1`) — the "serving while one GPU
/// is mid-secure-reset" scenario. Because shards share nothing, every
/// other shard's [`ScaleOutcome`] is bit-identical to the `resetting:
/// None` run; the degraded fabric pays only on the resetting shard.
/// Per-shard service totals are recorded under
/// `fabric.shard<i>.service_ns` when `metrics` is given.
pub fn run_fabric_scaled(
    model: &CostModel,
    specs: &[SessionSpec],
    switch_of: &[usize],
    resetting: Option<usize>,
    cfg: &SchedulerConfig,
    metrics: Option<&Metrics>,
) -> FabricScaleOutcome {
    let n_shards = switch_of.len().max(1);
    assert!(
        resetting.is_none_or(|r| r < n_shards),
        "resetting shard out of range"
    );
    // Same placement policy as the machine-level fabric, on counts.
    let mut assignment = Vec::with_capacity(specs.len());
    let mut load = vec![0usize; n_shards];
    for _ in specs {
        let shard = least_loaded(&load, switch_of);
        load[shard] += 1;
        assignment.push(shard);
    }
    let mut per_shard = Vec::with_capacity(n_shards);
    for shard in 0..n_shards {
        let mut shard_specs: Vec<SessionSpec> = specs
            .iter()
            .zip(&assignment)
            .filter(|(_, &a)| a == shard)
            .map(|(s, _)| s.clone())
            .collect();
        if resetting == Some(shard) {
            if let Some(first) = shard_specs.first_mut() {
                first.faults.tdr_resets += 1;
            }
        }
        let outcome = run_scaled(model, &shard_specs, Mode::Hix, cfg, metrics);
        if let Some(m) = metrics {
            let service: u64 = outcome.service.iter().map(|s| s.as_nanos()).sum();
            m.add_named(&format!("fabric.shard{shard}.service_ns"), service);
        }
        per_shard.push(outcome);
    }
    let makespan = per_shard
        .iter()
        .map(|o| o.makespan)
        .max()
        .unwrap_or(Nanos::ZERO);
    FabricScaleOutcome {
        makespan,
        per_shard,
        assignment,
    }
}
