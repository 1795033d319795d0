//! The orchestrator facade: service calls in, scheduled tasks and
//! optimized configurations out.
//!
//! This type owns the channel simulator (the paper's "wireless channel
//! simulator to model the interactions between surfaces"), the task table
//! and the slice map, and drives the schedule → optimize → actuate loop.
//! Hardware drivers live one layer down (in `surfos-hw`, glued by the
//! `surfos` kernel crate); the orchestrator works on the *physical*
//! configurations the simulator understands.

use crate::objective::{
    CoverageObjective, LocalizationObjective, MultiObjective, Objective, PoweringObjective,
    SuppressionObjective,
};
use crate::optimizer::{adam, AdamOptions, Tying};
use crate::scheduler::{Requirement, ResourceModel, ScheduleOutcome, Scheduler};
use crate::service::{ServiceKind, ServiceRequest};
use crate::slice::SliceMap;
use crate::task::{TaskId, TaskState, TaskTable};
use std::collections::BTreeMap;
use surfos_channel::paths::surface_serves;
use surfos_channel::{ChannelSim, Endpoint};
use surfos_sensing::aoa::AngleGrid;

/// Evaluation-grid resolution for room-scoped objectives.
const ROOM_GRID: (usize, usize) = (6, 6);
/// Probe height for room grids (typical device height, metres).
const GRID_HEIGHT_M: f64 = 1.2;
/// Inset from walls for room grids (metres).
const GRID_MARGIN_M: f64 = 0.4;

/// Whether services of `kind` name an endpoint (rather than a room) as
/// their subject.
fn names_endpoint(kind: ServiceKind) -> bool {
    matches!(kind, ServiceKind::Connectivity | ServiceKind::Powering)
}

/// The central control plane.
pub struct Orchestrator {
    /// The environment + surface model.
    pub sim: ChannelSim,
    /// Admitted tasks.
    pub tasks: TaskTable,
    /// Current frame's slice assignments.
    pub slices: SliceMap,
    /// Time slots per schedule frame.
    pub slots_per_frame: usize,
    /// Optimizer options used by [`optimize_slot`](Self::optimize_slot).
    pub adam_options: AdamOptions,
    /// Granularity tying (set from hardware specs by the kernel layer).
    pub tying: Tying,
    endpoints: BTreeMap<String, Endpoint>,
    ap_id: Option<String>,
    now_ms: u64,
}

impl Orchestrator {
    /// Creates an orchestrator over a simulator.
    pub fn new(sim: ChannelSim) -> Self {
        let n = sim.surfaces().len();
        Orchestrator {
            sim,
            tasks: TaskTable::new(),
            slices: SliceMap::new(),
            slots_per_frame: 4,
            adam_options: AdamOptions::default(),
            tying: Tying::element_wise(n),
            endpoints: BTreeMap::new(),
            ap_id: None,
            now_ms: 0,
        }
    }

    /// Registers an endpoint. The first access point registered becomes
    /// the serving AP for coverage/sensing objectives.
    ///
    /// # Panics
    /// Panics on duplicate endpoint ids.
    pub fn add_endpoint(&mut self, endpoint: Endpoint) {
        assert!(
            !self.endpoints.contains_key(&endpoint.id),
            "duplicate endpoint id {:?}",
            endpoint.id
        );
        if self.ap_id.is_none() && endpoint.kind == surfos_channel::EndpointKind::AccessPoint {
            self.ap_id = Some(endpoint.id.clone());
        }
        self.endpoints.insert(endpoint.id.clone(), endpoint);
    }

    /// Looks up an endpoint.
    pub fn endpoint(&self, id: &str) -> Option<&Endpoint> {
        self.endpoints.get(id)
    }

    /// Moves an endpoint (user mobility); returns false if unknown.
    pub fn move_endpoint(&mut self, id: &str, position: surfos_geometry::Vec3) -> bool {
        match self.endpoints.get_mut(id) {
            Some(e) => {
                e.pose.position = position;
                true
            }
            None => false,
        }
    }

    /// Current simulation time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// The serving access point.
    ///
    /// # Panics
    /// Panics when no AP has been registered — every service needs one.
    pub fn ap(&self) -> &Endpoint {
        let id = self.ap_id.as_ref().expect("no access point registered");
        &self.endpoints[id]
    }

    // --- Service API (paper §3.2 / Figure 6) ---------------------------

    /// `enhance_link(device, snr, latency)`.
    pub fn enhance_link(&mut self, device: &str, snr_db: f64, latency_ms: f64) -> TaskId {
        self.submit(ServiceRequest::enhance_link(device, snr_db, latency_ms))
    }

    /// `optimize_coverage(room, median_snr)`.
    pub fn optimize_coverage(&mut self, room: &str, median_snr_db: f64) -> TaskId {
        self.submit(ServiceRequest::optimize_coverage(room, median_snr_db))
    }

    /// `enable_sensing(room, duration)`.
    pub fn enable_sensing(&mut self, room: &str, duration_s: f64) -> TaskId {
        self.submit(ServiceRequest::enable_sensing(room, duration_s))
    }

    /// `init_powering(device, duration)`.
    pub fn init_powering(&mut self, device: &str, duration_s: f64) -> TaskId {
        self.submit(ServiceRequest::init_powering(device, duration_s))
    }

    /// `protect_link(room, max_leak)`.
    pub fn protect_link(&mut self, room: &str, max_leak_dbm: f64) -> TaskId {
        self.submit(ServiceRequest::protect_link(room, max_leak_dbm))
    }

    /// Admits an arbitrary request.
    pub fn submit(&mut self, request: ServiceRequest) -> TaskId {
        self.tasks.admit(request, self.now_ms)
    }

    // --- Scheduling -----------------------------------------------------

    /// The geometric target(s) of a task: the subject device's position or
    /// the subject room's centre. Empty when the subject doesn't exist.
    fn task_targets(&self, task: &crate::task::Task) -> Vec<surfos_geometry::Vec3> {
        self.subject_target(&task.request).into_iter().collect()
    }

    /// Where a request's subject is: an endpoint for link and powering
    /// services, a room centre otherwise.
    fn subject_target(&self, request: &ServiceRequest) -> Option<surfos_geometry::Vec3> {
        if names_endpoint(request.kind) {
            self.endpoints.get(&request.subject).map(Endpoint::position)
        } else {
            let room = self.sim.plan.room(&request.subject)?;
            Some(room.center(GRID_HEIGHT_M))
        }
    }

    /// Checks that a request's subject resolves under the rule scheduling
    /// applies: a known endpoint for link and powering services, a known
    /// room otherwise. A request that fails this could never be served.
    pub fn check_subject(&self, request: &ServiceRequest) -> Result<(), String> {
        match self.subject_target(request) {
            Some(_) => Ok(()),
            None => Err(format!(
                "unknown {} {:?} for a {:?} service",
                if names_endpoint(request.kind) {
                    "endpoint"
                } else {
                    "room"
                },
                request.subject,
                request.kind,
            )),
        }
    }

    /// Amplitude-scale score of how well an AP can reach a target, either
    /// directly or relayed through any one deployed surface (where the
    /// surface's element count stands in for its focusing gain).
    fn ap_score(&self, ap: &Endpoint, target: surfos_geometry::Vec3) -> f64 {
        let band = &self.sim.band;
        let d_direct = ap.position().distance(target).max(0.1);
        let direct = self
            .sim
            .plan
            .transmission_amplitude(ap.position(), target, band)
            / d_direct;
        let via_surface = self
            .sim
            .surfaces()
            .iter()
            .filter(|s| surface_serves(s, ap.position(), target))
            .map(|s| {
                let c = s.pose.position;
                let d1 = ap.position().distance(c).max(0.1);
                let d2 = c.distance(target).max(0.1);
                let t1 = self.sim.plan.transmission_amplitude(ap.position(), c, band);
                let t2 = self.sim.plan.transmission_amplitude(c, target, band);
                s.len() as f64 * s.element_area_m2() * t1 * t2 / (d1 * d2)
            })
            .fold(0.0f64, f64::max);
        direct.max(via_surface)
    }

    /// The access point that serves a task best (multi-AP deployments);
    /// falls back to the default AP when the task has no resolvable
    /// target. With a single AP this is always that AP.
    pub fn serving_ap_for(&self, task: TaskId) -> &Endpoint {
        let Some(task) = self.tasks.get(task) else {
            return self.ap();
        };
        let targets = self.task_targets(task);
        let Some(target) = targets.first().copied() else {
            return self.ap();
        };
        self.endpoints
            .values()
            .filter(|e| e.kind == surfos_channel::EndpointKind::AccessPoint)
            .max_by(|a, b| {
                self.ap_score(a, target)
                    .total_cmp(&self.ap_score(b, target))
            })
            .unwrap_or_else(|| self.ap())
    }

    /// Which surfaces can serve a task, from geometry and operation modes.
    pub fn servable_surfaces(&self, task: TaskId) -> Vec<usize> {
        let ap_pos = self.serving_ap_for(task).position();
        let Some(task) = self.tasks.get(task) else {
            return Vec::new();
        };
        let targets = self.task_targets(task);
        if targets.is_empty() {
            return Vec::new();
        }
        // A surface is servable when its operation mode covers the
        // geometry AND the whole relay path (AP → surface → target) is not
        // buried in walls: the product of the two legs' transmission
        // amplitudes must stay above ~40 dB of total penetration loss.
        const MIN_RELAY_AMPLITUDE: f64 = 1e-2;
        (0..self.sim.surfaces().len())
            .filter(|&s| {
                let surf = &self.sim.surfaces()[s];
                let t_ap = self.sim.plan.transmission_amplitude(
                    ap_pos,
                    surf.pose.position,
                    &self.sim.band,
                );
                targets.iter().all(|t| {
                    surface_serves(surf, ap_pos, *t)
                        && t_ap
                            * self.sim.plan.transmission_amplitude(
                                surf.pose.position,
                                *t,
                                &self.sim.band,
                            )
                            > MIN_RELAY_AMPLITUDE
                })
            })
            .collect()
    }

    /// Builds this frame's requirements and schedules it. Granted tasks
    /// move to `Running`; rejected or unservable tasks stay `Pending`.
    pub fn schedule_frame(&mut self) -> ScheduleOutcome {
        let model = ResourceModel {
            slots_per_frame: self.slots_per_frame,
            bands: 1,
            surfaces: self.sim.surfaces().len(),
        };
        let mut requirements = Vec::new();
        let live: Vec<TaskId> = self.tasks.live_by_priority().iter().map(|t| t.id).collect();
        for id in live {
            let surfaces = self.servable_surfaces(id);
            let task = self.tasks.get(id).expect("live task");
            if surfaces.is_empty() {
                continue; // unservable right now; stays pending
            }
            // Security tasks need exclusive control (nulls are fragile);
            // everything else can share via joint optimization.
            let shareable = task.request.kind != ServiceKind::Security;
            requirements.push(Requirement {
                task: id,
                priority: task.request.priority,
                band: 0,
                surfaces,
                min_slots: 1,
                shareable,
            });
        }
        let outcome = Scheduler::schedule(&requirements, &model);
        surfos_obs::add("orchestrator.frames", 1);
        surfos_obs::add(
            "orchestrator.tasks_granted",
            (requirements.len() - outcome.rejected.len()) as u64,
        );
        surfos_obs::add("orchestrator.tasks_rejected", outcome.rejected.len() as u64);

        // State transitions.
        for r in &requirements {
            let granted = !outcome.rejected.contains(&r.task);
            let state = if granted {
                TaskState::Running
            } else {
                TaskState::Pending
            };
            let current = self.tasks.get(r.task).expect("task exists").state;
            if current != state
                && matches!(
                    current,
                    TaskState::Pending | TaskState::Running | TaskState::Idle
                )
            {
                // Running → Pending is a preemption; Pending → Running a grant.
                surfos_obs::event!(
                    "scheduler",
                    "task {:?} {current:?} -> {state:?} (frame at {} ms)",
                    r.task,
                    self.now_ms
                );
                self.tasks.set_state(r.task, state);
            }
        }
        self.slices = outcome.map.clone();
        outcome
    }

    // --- Objectives and optimization -------------------------------------

    /// Builds the differentiable objective for one task, or `None` when
    /// the subject no longer exists.
    pub fn objective_for(&self, task: TaskId) -> Option<Box<dyn Objective>> {
        let ap = self.serving_ap_for(task).clone();
        let task = self.tasks.get(task)?;
        match task.request.kind {
            ServiceKind::Connectivity => {
                let device = self.endpoints.get(&task.request.subject)?;
                Some(Box::new(CoverageObjective::new(
                    &self.sim,
                    &ap,
                    &[device.position()],
                    device,
                )))
            }
            ServiceKind::Coverage => {
                let room = self.sim.plan.room(&task.request.subject)?;
                let grid = room.sample_grid(ROOM_GRID.0, ROOM_GRID.1, GRID_HEIGHT_M, GRID_MARGIN_M);
                let template = Endpoint::client("probe", grid[0]);
                Some(Box::new(CoverageObjective::new(
                    &self.sim, &ap, &grid, &template,
                )))
            }
            ServiceKind::Sensing => {
                let room = self.sim.plan.room(&task.request.subject)?;
                let grid = room.sample_grid(4, 4, GRID_HEIGHT_M, GRID_MARGIN_M);
                let template = Endpoint::client("probe", grid[0]);
                let surface = *self.servable_surfaces(task.id).first()?;
                Some(Box::new(LocalizationObjective::new(
                    &self.sim,
                    surface,
                    &ap,
                    &template,
                    &grid,
                    AngleGrid::uniform(41, 1.2),
                )))
            }
            ServiceKind::Powering => {
                let device = self.endpoints.get(&task.request.subject)?;
                Some(Box::new(PoweringObjective::new(&self.sim, &ap, device)))
            }
            ServiceKind::Security => {
                let room = self.sim.plan.room(&task.request.subject)?;
                let grid = room.sample_grid(4, 4, GRID_HEIGHT_M, GRID_MARGIN_M);
                let template = Endpoint::client("probe", grid[0]);
                let mut obj = SuppressionObjective::new(&self.sim, &ap, &grid, &template);
                if let crate::service::ServiceGoal::Suppression { max_leak_dbm } = task.request.goal
                {
                    obj = obj.with_goal(max_leak_dbm, ap.tx_power_dbm);
                }
                Some(Box::new(obj))
            }
        }
    }

    /// Jointly optimizes the configuration for all tasks scheduled in a
    /// time slot and applies it to the simulator's surfaces. Returns the
    /// achieved loss, or `None` when the slot is empty.
    pub fn optimize_slot(&mut self, slot: usize) -> Option<f64> {
        let _span = surfos_obs::span!("orchestrator.optimize_slot");
        let latency_t0 = surfos_obs::enabled().then(std::time::Instant::now);
        let mut task_ids: Vec<TaskId> = self
            .slices
            .iter()
            .filter(|(s, _)| s.slot == slot)
            .flat_map(|(_, g)| g.tasks.iter().copied())
            .collect();
        task_ids.sort_unstable();
        task_ids.dedup();
        if task_ids.is_empty() {
            return None;
        }

        let mut multi = MultiObjective::new();
        for id in &task_ids {
            if let Some(obj) = self.objective_for(*id) {
                multi = multi.with(obj, 1.0);
            }
        }
        if multi.is_empty() {
            return None;
        }

        let initial: Vec<Vec<f64>> = self
            .sim
            .surfaces()
            .iter()
            .map(|s| s.response().iter().map(|r| r.arg()).collect())
            .collect();
        let result = adam(&multi, &initial, &self.tying, self.adam_options);
        for (s, phases) in result.phases.iter().enumerate() {
            self.sim.set_surface_phases(s, phases);
        }
        surfos_obs::gauge("orchestrator.slot.loss", result.loss);
        if let Some(t0) = latency_t0 {
            // Per-service-class latency: label by the slot's service kind
            // (or "mixed" for shared slots) so the HDR timer exposes e.g.
            // orchestrator.optimize.latency_ns{service=Coverage} p99.
            let mut kinds: Vec<&'static str> = task_ids
                .iter()
                .filter_map(|id| self.tasks.get(*id))
                .map(|t| kind_name(t.request.kind))
                .collect();
            kinds.sort_unstable();
            kinds.dedup();
            let label = if kinds.len() == 1 { kinds[0] } else { "mixed" };
            let _svc = surfos_obs::scoped(&[("service", label)]);
            surfos_obs::observe_ns(
                "orchestrator.optimize.latency_ns",
                t0.elapsed().as_nanos() as u64,
            );
        }
        Some(result.loss)
    }

    /// Advances time: reaps expired tasks and releases their slices.
    /// Returns the ids of tasks completed by expiry.
    pub fn tick(&mut self, dt_ms: u64) -> Vec<TaskId> {
        self.now_ms += dt_ms;
        let reaped = self.tasks.reap_expired(self.now_ms);
        for id in &reaped {
            self.slices.release_task(*id);
        }
        reaped
    }

    /// Marks a task idle, releasing its slices for reuse (the paper's
    /// "setting a task idle when not used and releasing resources").
    pub fn set_idle(&mut self, task: TaskId) {
        self.tasks.set_state(task, TaskState::Idle);
        self.slices.release_task(task);
    }

    /// Measured service metric for a task with the current configuration.
    pub fn measure(&mut self, task: TaskId) -> Option<f64> {
        let _span = surfos_obs::span!("orchestrator.measure");
        let ap = self.serving_ap_for(task).clone();
        let t = self.tasks.get(task)?;
        let metric = match t.request.kind {
            ServiceKind::Connectivity => {
                let device = self.endpoints.get(&t.request.subject)?;
                self.sim.link_budget(&ap, device).snr_db
            }
            ServiceKind::Powering => {
                // Delivered RF power at the device, dBm.
                let device = self.endpoints.get(&t.request.subject)?;
                self.sim.rss_dbm(&ap, device)
            }
            ServiceKind::Coverage => {
                let room = self.sim.plan.room(&t.request.subject)?;
                let grid = room.sample_grid(ROOM_GRID.0, ROOM_GRID.1, GRID_HEIGHT_M, GRID_MARGIN_M);
                let template = Endpoint::client("probe", grid[0]);
                self.sim.snr_heatmap(&ap, &grid, &template).median()
            }
            ServiceKind::Security => {
                // Worst (highest) leaked RSS into the protected region,
                // dBm — lower is better.
                let room = self.sim.plan.room(&t.request.subject)?;
                let grid = room.sample_grid(ROOM_GRID.0, ROOM_GRID.1, GRID_HEIGHT_M, GRID_MARGIN_M);
                let template = Endpoint::client("probe", grid[0]);
                self.sim.rss_heatmap(&ap, &grid, &template).max()
            }
            ServiceKind::Sensing => {
                let obj = self.objective_for(task)?;
                let responses: Vec<Vec<surfos_em::complex::Complex>> = self
                    .sim
                    .surfaces()
                    .iter()
                    .map(|s| s.response().to_vec())
                    .collect();
                obj.loss(&responses)
            }
        };
        self.tasks.get_mut(task)?.last_metric = Some(metric);
        Some(metric)
    }
}

/// Static label value for a service kind — bounded, never formatted on the
/// hot path (see `surfos_obs::scoped`).
fn kind_name(kind: ServiceKind) -> &'static str {
    match kind {
        ServiceKind::Connectivity => "Connectivity",
        ServiceKind::Coverage => "Coverage",
        ServiceKind::Sensing => "Sensing",
        ServiceKind::Powering => "Powering",
        ServiceKind::Security => "Security",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfos_channel::{OperationMode, SurfaceInstance};
    use surfos_em::array::ArrayGeometry;
    use surfos_em::band::NamedBand;
    use surfos_geometry::scenario::two_room_apartment;
    use surfos_geometry::{Pose, Vec3};

    fn build() -> Orchestrator {
        let scen = two_room_apartment();
        let band = NamedBand::MmWave28GHz.band();
        let mut sim = ChannelSim::new(scen.plan.clone(), band);
        let pose = *scen.anchor("bedroom-north").unwrap();
        let geom = ArrayGeometry::half_wavelength(16, 16, band.wavelength_m());
        sim.add_surface(SurfaceInstance::new(
            "prog0",
            pose,
            geom,
            OperationMode::Reflective,
        ));
        let mut orch = Orchestrator::new(sim);
        // AP aimed at the surface.
        let ap = Endpoint::access_point(
            "ap0",
            Pose::wall_mounted(scen.ap_pose.position, pose.position - scen.ap_pose.position),
        );
        orch.add_endpoint(ap);
        orch.add_endpoint(Endpoint::client("laptop", Vec3::new(6.5, 1.5, 1.2)));
        orch.adam_options.iters = 60;
        orch
    }

    #[test]
    fn service_calls_admit_tasks() {
        let mut o = build();
        let a = o.optimize_coverage("bedroom", 25.0);
        let b = o.enhance_link("laptop", 20.0, 50.0);
        assert_ne!(a, b);
        assert_eq!(o.tasks.all().len(), 2);
        assert_eq!(o.tasks.get(a).unwrap().state, TaskState::Pending);
    }

    #[test]
    fn servable_surfaces_from_geometry() {
        let mut o = build();
        let t = o.optimize_coverage("bedroom", 25.0);
        assert_eq!(o.servable_surfaces(t), vec![0]);
        // A room that doesn't exist is unservable.
        let t2 = o.optimize_coverage("garage", 25.0);
        assert!(o.servable_surfaces(t2).is_empty());
    }

    #[test]
    fn schedule_grants_and_runs() {
        let mut o = build();
        let t = o.optimize_coverage("bedroom", 25.0);
        let out = o.schedule_frame();
        assert!(out.rejected.is_empty());
        assert_eq!(o.tasks.get(t).unwrap().state, TaskState::Running);
        assert!(!o.slices.slices_of(t).is_empty());
    }

    #[test]
    fn optimizing_coverage_slot_improves_room_snr() {
        let mut o = build();
        let t = o.optimize_coverage("bedroom", 25.0);
        o.schedule_frame();
        let before = o.measure(t).unwrap();
        let slot = o.slices.slices_of(t)[0].slot;
        let loss = o.optimize_slot(slot).expect("slot occupied");
        assert!(loss.is_finite());
        let after = o.measure(t).unwrap();
        assert!(
            after > before + 10.0,
            "optimization should add >10 dB median SNR: before={before:.1} after={after:.1}"
        );
    }

    #[test]
    fn joint_slot_shares_surface_between_tasks() {
        let mut o = build();
        let cov = o.optimize_coverage("bedroom", 25.0);
        let sense = o.enable_sensing("bedroom", 600.0);
        let out = o.schedule_frame();
        assert!(out.rejected.is_empty());
        // Both shareable tasks land on slot 0 of surface 0 together.
        let s_cov = o.slices.slices_of(cov);
        let s_sense = o.slices.slices_of(sense);
        assert!(s_cov.iter().any(|s| s_sense.contains(s)));
        let slot = s_cov[0].slot;
        assert!(o.optimize_slot(slot).is_some());
    }

    #[test]
    fn expiry_releases_slices() {
        let mut o = build();
        let t = o.enable_sensing("bedroom", 1.0); // 1 second
        o.schedule_frame();
        assert!(!o.slices.slices_of(t).is_empty());
        let reaped = o.tick(1500);
        assert_eq!(reaped, vec![t]);
        assert!(o.slices.slices_of(t).is_empty());
        assert_eq!(o.tasks.get(t).unwrap().state, TaskState::Completed);
    }

    #[test]
    fn idle_releases_but_keeps_task() {
        let mut o = build();
        let t = o.optimize_coverage("bedroom", 25.0);
        o.schedule_frame();
        o.set_idle(t);
        assert!(o.slices.slices_of(t).is_empty());
        assert_eq!(o.tasks.get(t).unwrap().state, TaskState::Idle);
        // Next frame it can be scheduled again.
        let out = o.schedule_frame();
        assert!(out.rejected.is_empty());
        assert_eq!(o.tasks.get(t).unwrap().state, TaskState::Running);
    }

    #[test]
    fn multi_ap_serving_selection() {
        let mut o = build();
        // A second AP inside the bedroom, near the client.
        o.add_endpoint(Endpoint::access_point(
            "ap-bedroom",
            Pose::wall_mounted(Vec3::new(8.7, 2.0, 2.2), Vec3::new(-1.0, 0.0, 0.0)),
        ));
        // The default AP is still the first one registered.
        assert_eq!(o.ap().id, "ap0");

        // A bedroom link should be served by the bedroom AP (direct LOS
        // beats relaying through the doorway surface).
        let t = o.enhance_link("laptop", 20.0, 50.0);
        assert_eq!(o.serving_ap_for(t).id, "ap-bedroom");

        // A living-room client is served by the living-room AP.
        o.add_endpoint(Endpoint::client("desktop", Vec3::new(2.0, 1.5, 1.0)));
        let t2 = o.enhance_link("desktop", 20.0, 50.0);
        assert_eq!(o.serving_ap_for(t2).id, "ap0");

        // Unknown subjects fall back to the default AP.
        let t3 = o.enhance_link("ghost", 20.0, 50.0);
        assert_eq!(o.serving_ap_for(t3).id, "ap0");
    }

    #[test]
    fn measure_uses_serving_ap() {
        let mut o = build();
        o.add_endpoint(Endpoint::access_point(
            "ap-bedroom",
            Pose::wall_mounted(Vec3::new(8.7, 2.0, 2.2), Vec3::new(-1.0, 0.0, 0.0)),
        ));
        let t = o.enhance_link("laptop", 20.0, 50.0);
        // Direct bedroom AP → laptop link is strong without any surface.
        let snr = o.measure(t).unwrap();
        assert!(snr > 20.0, "bedroom AP should serve directly: {snr:.1}");
    }

    #[test]
    fn endpoint_mobility() {
        let mut o = build();
        assert!(o.move_endpoint("laptop", Vec3::new(7.0, 2.0, 1.2)));
        assert_eq!(
            o.endpoint("laptop").unwrap().position(),
            Vec3::new(7.0, 2.0, 1.2)
        );
        assert!(!o.move_endpoint("ghost", Vec3::ZERO));
    }

    #[test]
    #[should_panic(expected = "duplicate endpoint id")]
    fn duplicate_endpoint_rejected() {
        let mut o = build();
        o.add_endpoint(Endpoint::client("laptop", Vec3::ZERO));
    }
}
