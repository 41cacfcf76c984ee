//! Profiling sessions wrapping a training run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use gnnmark_gpusim::stream::{CapturedStream, TransferRecord};
use gnnmark_gpusim::{
    DeviceSpec, GpuModel, KernelMetrics, PrevStep, TransferDirection, TransferEngine,
};
use gnnmark_tensor::instrument::OpEvent;
use gnnmark_tensor::{record, CsrMatrix, IntTensor, Tensor};

use crate::profile::WorkloadProfile;
use crate::replay::STEPS_ELIDED_TOTAL;

/// Steps launched and not yet simulated at any moment: the one the
/// simulator is executing plus the ones waiting in the channel. A launch
/// beyond that blocks the training thread until the simulator takes a step,
/// so a simulator slower than training holds the heap at this many steps'
/// events, plus the last simulated step's (kept to compare the next launch
/// with, see [`GpuModel::execute_step`]), instead of the whole run's.
const STEPS_IN_FLIGHT: usize = 2;

/// Captures the op stream of a training run and lowers it onto the GPU
/// model.
///
/// Usage per training step: [`ProfileSession::begin_step`] → run forward /
/// backward / optimizer through the tensor engine → [`ProfileSession::end_step`].
/// Host→device copies go through the `upload*` methods so their sparsity
/// is measured, as the paper does by instrumenting PyTorch.
///
/// The session has CUDA-stream semantics. [`ProfileSession::end_step`] is a
/// kernel *launch*: it hands the step's events to the session's simulator
/// thread (`gnnmark-sim`, started by the first launch) and returns, so the
/// next step trains while this one is simulated.
/// [`ProfileSession::finish`], [`ProfileSession::finish_captured`] and
/// [`ProfileSession::modeled_time_ns`] *synchronize*: they wait until every
/// launched step has been simulated. The one simulator thread consumes steps
/// in launch order from a fresh [`GpuModel`], each launch one
/// [`GpuModel::execute_step`] after the one before, which is the computation
/// [`crate::replay::replay_profile`] does, so the profile does not depend on
/// how the two threads interleave.
///
/// A panic inside the model is re-raised, with its original payload, on the
/// session's thread by the next launch or synchronize. Dropping a session
/// cancels what is still queued and joins the simulator thread.
pub struct ProfileSession {
    name: String,
    spec: DeviceSpec,
    transfers: TransferEngine,
    steps: u64,
    step_kernels: Vec<u32>,
    in_step: bool,
    capture: Option<CapturedStream>,
    sim: Option<Simulator>,
}

impl std::fmt::Debug for ProfileSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileSession")
            .field("name", &self.name)
            .field("device", &self.spec.name)
            .field("steps", &self.steps)
            .field("kernels_launched", &self.kernel_count())
            .field("in_step", &self.in_step)
            .field("capture", &self.capture.is_some())
            .field("simulator_running", &self.sim.is_some())
            .finish()
    }
}

/// What the session's thread sends the simulator thread.
enum Command {
    /// One step's events, to execute in order into `kernels`.
    ///
    /// The session's thread allocates `kernels` (empty, with room for the
    /// step) so that the run's metrics live in the allocator arena the
    /// training thread reuses for tensors afterwards; grown on the simulator
    /// thread they would sit in a second arena that is never trimmed (+6 MiB
    /// on an 18 MiB inference process).
    Launch {
        events: Vec<OpEvent>,
        kernels: Vec<KernelMetrics>,
    },
    /// Reply with the modeled time of everything launched before this.
    Synchronize(mpsc::Sender<f64>),
}

/// What the simulator thread lowers launched steps through.
enum Model {
    /// The session's device, one [`GpuModel::execute_step`] per launch.
    Gpu(Box<GpuModel>),
    /// A per-event stand-in from [`ProfileSession::with_model`].
    Custom(Box<dyn FnMut(&OpEvent) -> KernelMetrics + Send>),
}

/// What the simulator thread has produced so far, and returns when joined.
#[derive(Default)]
struct Simulated {
    /// Kernel metrics, one `Vec` per launch, in launch order.
    launches: Vec<Vec<KernelMetrics>>,
    modeled_ns: f64,
}

/// The session's handle on its simulator thread.
struct Simulator {
    commands: SyncSender<Command>,
    /// Set by [`Simulator::cancel`]; publishes no data, so `Relaxed`.
    cancelled: Arc<AtomicBool>,
    thread: JoinHandle<Simulated>,
}

impl Simulator {
    /// Starts a simulator thread that lowers each launch through `model`.
    fn spawn(model: Model) -> Self {
        // The executing step has left the channel, so the channel holds the
        // rest of the in-flight budget.
        let (commands, inbox) = mpsc::sync_channel(STEPS_IN_FLIGHT - 1);
        let cancelled = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&cancelled);
        let thread = std::thread::Builder::new()
            .name("gnnmark-sim".to_string())
            .spawn(move || Self::run(inbox, &stop, model))
            .expect("spawn the gnnmark-sim thread");
        Simulator {
            commands,
            cancelled,
            thread,
        }
    }

    /// The simulator thread: executes commands in order until the session
    /// drops its sender, or until `stop` is set.
    fn run(inbox: Receiver<Command>, stop: &AtomicBool, mut model: Model) -> Simulated {
        let mut done = Simulated::default();
        // The last launch's events, which the next one is compared with; its
        // metrics are `done.launches.last()`.
        let mut prev: Option<Vec<OpEvent>> = None;
        'commands: for command in inbox {
            match command {
                Command::Launch {
                    events,
                    mut kernels,
                } => {
                    // The host time this costs is what the `simulate` span
                    // measures — on the real hardware it would be kernel
                    // execution, here it is the analytic model.
                    let mut sp = gnnmark_telemetry::span!("simulate", "gpu-model");
                    match &mut model {
                        Model::Gpu(gpu) => {
                            if stop.load(Ordering::Relaxed) {
                                break 'commands;
                            }
                            let elided = gpu.steps_elided();
                            let last = prev.as_deref().zip(done.launches.last());
                            let prev_step =
                                last.map(|(events, kernels)| PrevStep { events, kernels });
                            gpu.execute_step(&events, prev_step, &mut kernels);
                            sp.arg("elided", gpu.steps_elided() - elided);
                            prev = Some(events);
                        }
                        Model::Custom(model) => {
                            for e in events {
                                if stop.load(Ordering::Relaxed) {
                                    break 'commands;
                                }
                                kernels.push(model(&e));
                            }
                        }
                    }
                    for k in &kernels {
                        done.modeled_ns += k.time_ns;
                    }
                    done.launches.push(kernels);
                }
                Command::Synchronize(reply) => {
                    // A session that stopped waiting is not an error.
                    let _ = reply.send(done.modeled_ns);
                }
            }
        }
        if let Model::Gpu(gpu) = &model {
            gnnmark_telemetry::metrics::counter_add(STEPS_ELIDED_TOTAL, gpu.steps_elided());
        }
        done
    }

    /// Closes the channel and waits for the simulator to run dry.
    ///
    /// # Panics
    /// Re-raises a panic of the simulator thread with its payload.
    fn join(self) -> Simulated {
        drop(self.commands);
        self.thread
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    /// Abandons whatever is queued and waits for the thread to exit (at
    /// most the model time of the step it is in; of one kernel for a
    /// [`ProfileSession::with_model`] stand-in). Swallows a simulator panic:
    /// this runs from `Drop`, usually while an error is already on its way
    /// up.
    fn cancel(self) {
        self.cancelled.store(true, Ordering::Relaxed);
        drop(self.commands);
        let _ = self.thread.join();
    }
}

impl ProfileSession {
    /// Creates a session for a named workload on a device.
    pub fn new(name: impl Into<String>, spec: DeviceSpec) -> Self {
        let transfers = TransferEngine::new(&spec);
        ProfileSession {
            name: name.into(),
            spec,
            transfers,
            steps: 0,
            step_kernels: Vec::new(),
            in_step: false,
            capture: None,
            sim: None,
        }
    }

    /// A session whose simulator thread calls `model` on every event where
    /// [`ProfileSession::new`]'s calls [`GpuModel::execute_step`] on every
    /// launch — for tests that need the simulator to stall or fail on cue.
    #[doc(hidden)]
    pub fn with_model(
        name: impl Into<String>,
        spec: DeviceSpec,
        model: impl FnMut(&OpEvent) -> KernelMetrics + Send + 'static,
    ) -> Self {
        let mut session = Self::new(name, spec);
        session.sim = Some(Simulator::spawn(Model::Custom(Box::new(model))));
        session
    }

    /// Turns on op-stream capture: every step's events are retained (in
    /// addition to being simulated) so the run can be serialized and later
    /// replayed under other device configs via
    /// [`crate::replay::replay_profile`]. Call before the first step.
    pub fn enable_capture(&mut self) {
        if self.capture.is_none() {
            self.capture = Some(CapturedStream::default());
        }
    }

    /// Starts capturing ops on this thread.
    ///
    /// # Panics
    /// Panics if a step is already open.
    pub fn begin_step(&mut self) {
        assert!(!self.in_step, "begin_step called twice");
        self.in_step = true;
        record::start_recording();
    }

    /// Stops capturing and launches the captured kernels on the simulator
    /// thread; returns without waiting for them (blocks only while two
    /// earlier steps are still unsimulated).
    ///
    /// # Panics
    /// Panics if no step is open, and re-raises a simulator panic.
    pub fn end_step(&mut self) {
        assert!(self.in_step, "end_step without begin_step");
        self.in_step = false;
        self.steps += 1;
        let events = record::stop_recording();
        self.step_kernels.push(events.len() as u32);
        if let Some(cap) = self.capture.as_mut() {
            cap.push_step(&events);
        }
        self.launch(events);
    }

    /// Hands one step's events to the simulator thread, starting it first
    /// if this is the session's first launch.
    fn launch(&mut self, events: Vec<OpEvent>) {
        let spec = &self.spec;
        let sim = self.sim.get_or_insert_with(|| {
            // Built here, not on the new thread: see `Command::Launch`.
            Simulator::spawn(Model::Gpu(Box::new(GpuModel::new(spec.clone()))))
        });
        let kernels = Vec::with_capacity(events.len());
        if sim
            .commands
            .send(Command::Launch { events, kernels })
            .is_err()
        {
            self.reraise();
        }
    }

    /// The simulator hung up, which it only does by panicking: surface that
    /// panic here instead of a channel error.
    fn reraise(&mut self) -> ! {
        let sim = self.sim.take().expect("a simulator was running");
        sim.join();
        unreachable!("the gnnmark-sim thread exited while its session was alive");
    }

    /// Records a host→device upload of a dense tensor (sparsity measured).
    pub fn upload(&mut self, t: &Tensor) {
        self.transfers.upload(t);
    }

    /// Records a host→device upload of an index tensor.
    pub fn upload_int(&mut self, t: &IntTensor) {
        self.transfers.upload_int(t);
    }

    /// Records a host→device upload of a sparse matrix.
    pub fn upload_csr(&mut self, m: &CsrMatrix) {
        self.transfers.upload_csr(m);
    }

    /// Records a device→host download.
    pub fn download(&mut self, t: &Tensor) {
        self.transfers.download(t);
    }

    /// Steps profiled so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Kernels launched by finished steps so far (simulated or still
    /// queued).
    pub fn kernel_count(&self) -> usize {
        self.step_kernels.iter().map(|&n| n as usize).sum()
    }

    /// Modeled GPU time of every kernel launched so far, nanoseconds.
    ///
    /// A synchronize point: it waits for the simulator to catch up, which
    /// serializes training behind simulation. Keep it off per-step and
    /// per-epoch paths; per-step times are available after the run from
    /// [`WorkloadProfile::step_times_ns`].
    ///
    /// # Panics
    /// Re-raises a simulator panic.
    pub fn modeled_time_ns(&mut self) -> f64 {
        let Some(sim) = self.sim.as_ref() else {
            return 0.0;
        };
        let (reply, modeled) = mpsc::channel();
        if sim.commands.send(Command::Synchronize(reply)).is_ok() {
            if let Ok(ns) = modeled.recv() {
                return ns;
            }
        }
        self.reraise()
    }

    /// The device spec in use.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Finishes the session and builds the aggregate profile.
    ///
    /// # Panics
    /// Panics if a step is still open, and re-raises a simulator panic.
    pub fn finish(mut self) -> WorkloadProfile {
        assert!(!self.in_step, "finish inside an open step");
        let launches = self
            .sim
            .take()
            .map_or_else(Vec::new, |sim| sim.join().launches);
        let mut kernels = Vec::with_capacity(launches.iter().map(Vec::len).sum());
        for launch in launches {
            kernels.extend(launch);
        }
        WorkloadProfile::build(
            std::mem::take(&mut self.name),
            self.spec.clone(),
            kernels,
            &self.transfers,
            self.steps,
            std::mem::take(&mut self.step_kernels),
        )
    }

    /// Finishes the session and also returns the captured op stream.
    ///
    /// The stream's transfer list is filled from this session's measured
    /// transfers (payload counts only — times are recomputed at replay).
    ///
    /// # Panics
    /// Panics if a step is still open or capture was never enabled, and
    /// re-raises a simulator panic.
    pub fn finish_captured(mut self) -> (WorkloadProfile, CapturedStream) {
        let mut stream = self
            .capture
            .take()
            .expect("finish_captured without enable_capture");
        stream.transfers = self
            .transfers
            .transfers()
            .iter()
            .map(|t| TransferRecord {
                h2d: t.direction == TransferDirection::HostToDevice,
                bytes: t.bytes,
                zeros: t.zeros,
                elements: t.elements,
            })
            .collect();
        (self.finish(), stream)
    }
}

impl Drop for ProfileSession {
    /// A session abandoned mid-run (a `?` out of the epoch loop, a panic)
    /// takes its simulator thread with it.
    fn drop(&mut self) {
        if let Some(sim) = self.sim.take() {
            sim.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;

    /// One profiled step running `ops` unary kernels.
    fn step(s: &mut ProfileSession, ops: &[fn(&Tensor) -> Tensor]) {
        let x = Tensor::ones(&[8, 8]);
        s.begin_step();
        for op in ops {
            let _ = op(&x);
        }
        s.end_step();
    }

    /// A real model that waits for a permit before every kernel and counts
    /// the kernels it executed. Dropping the permit sender opens the gate
    /// for good.
    fn gated_model(
        gate: mpsc::Receiver<()>,
        executed: Arc<AtomicUsize>,
    ) -> impl FnMut(&OpEvent) -> KernelMetrics + Send + 'static {
        let mut gpu = GpuModel::new(DeviceSpec::v100());
        move |e| {
            let _ = gate.recv();
            executed.fetch_add(1, Ordering::SeqCst);
            gpu.execute(e)
        }
    }

    fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("a string payload")
    }

    #[test]
    fn captures_kernels_per_step() {
        let mut s = ProfileSession::new("t", DeviceSpec::v100());
        s.begin_step();
        let x = Tensor::ones(&[16, 16]);
        let _ = x.relu();
        let _ = x.matmul(&x).unwrap();
        s.end_step();
        assert_eq!(s.kernel_count(), 2);
        assert_eq!(s.steps(), 1);
        s.begin_step();
        let _ = x.sigmoid();
        s.end_step();
        assert_eq!(s.kernel_count(), 3);
        let p = s.finish();
        assert_eq!(p.kernels.len(), 3);
        assert_eq!(p.steps, 2);
    }

    #[test]
    #[should_panic(expected = "begin_step called twice")]
    fn double_begin_panics() {
        let mut s = ProfileSession::new("t", DeviceSpec::v100());
        s.begin_step();
        s.begin_step();
    }

    #[test]
    fn modeled_time_waits_for_every_launched_step() {
        let mut s = ProfileSession::new("t", DeviceSpec::v100());
        assert_eq!(s.modeled_time_ns(), 0.0, "no launch, no simulator");
        step(&mut s, &[Tensor::relu, Tensor::sigmoid]);
        let after_one = s.modeled_time_ns();
        step(&mut s, &[Tensor::tanh]);
        let after_two = s.modeled_time_ns();
        assert!(after_one > 0.0 && after_two > after_one);
        let p = s.finish();
        assert_eq!(after_two.to_bits(), p.total_kernel_time_ns().to_bits());
    }

    #[test]
    fn a_simulator_panic_resurfaces_from_a_later_launch() {
        let mut s = ProfileSession::with_model("t", DeviceSpec::v100(), |_| {
            panic!("injected simulator fault")
        });
        // The first launch can only succeed; by the time the in-flight
        // budget is spent the dead simulator has to have been noticed.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..=STEPS_IN_FLIGHT {
                step(&mut s, &[Tensor::relu]);
            }
        }));
        let payload = caught.expect_err("the launches outlived their simulator");
        assert_eq!(panic_text(payload), "injected simulator fault");
        // The session is still a value: dropping it must not hang or panic.
        drop(s);
    }

    #[test]
    fn a_simulator_panic_resurfaces_from_finish() {
        let mut s = ProfileSession::with_model("t", DeviceSpec::v100(), |_| {
            panic!("injected simulator fault")
        });
        step(&mut s, &[Tensor::relu]);
        let payload = catch_unwind(AssertUnwindSafe(|| s.finish())).expect_err("finish returned");
        assert_eq!(panic_text(payload), "injected simulator fault");
    }

    #[test]
    fn a_simulator_panic_resurfaces_from_modeled_time() {
        let mut s = ProfileSession::with_model("t", DeviceSpec::v100(), |_| {
            panic!("injected simulator fault")
        });
        step(&mut s, &[Tensor::relu]);
        let payload = catch_unwind(AssertUnwindSafe(|| s.modeled_time_ns()))
            .expect_err("synchronize returned");
        assert_eq!(panic_text(payload), "injected simulator fault");
    }

    #[test]
    fn drop_abandons_the_queue_and_joins_the_simulator() {
        let (permit, gate) = mpsc::channel();
        let executed = Arc::new(AtomicUsize::new(0));
        let mut s = ProfileSession::with_model(
            "t",
            DeviceSpec::v100(),
            gated_model(gate, Arc::clone(&executed)),
        );
        step(&mut s, &[Tensor::relu, Tensor::relu, Tensor::relu]);
        step(&mut s, &[Tensor::sigmoid, Tensor::sigmoid]);
        // Two steps in flight, the first one's first kernel inside the
        // model. Open the gate only once the drop has raised the flag.
        let cancelled = Arc::clone(&s.sim.as_ref().expect("launched").cancelled);
        let dropper = std::thread::spawn(move || drop(s));
        while !cancelled.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        drop(permit);
        dropper.join().expect("drop does not panic");
        assert_eq!(
            executed.load(Ordering::SeqCst),
            1,
            "only the kernel already in the model ran"
        );
        // The model (and the counter it holds) went with the joined thread.
        assert_eq!(Arc::strong_count(&executed), 1);
    }

    #[test]
    fn debug_names_the_session_without_dumping_it() {
        let mut s = ProfileSession::new("dbg", DeviceSpec::v100());
        step(&mut s, &[Tensor::relu]);
        let text = format!("{s:?}");
        assert!(text.contains("\"dbg\"") && text.contains("simulator_running: true"));
    }

    #[test]
    fn uploads_recorded_with_sparsity() {
        let mut s = ProfileSession::new("t", DeviceSpec::v100());
        s.upload(&Tensor::zeros(&[100]));
        s.upload(&Tensor::ones(&[100]));
        let p = s.finish();
        assert!((p.mean_sparsity - 0.5).abs() < 1e-12);
        assert_eq!(p.sparsity_series.len(), 2);
    }
}
