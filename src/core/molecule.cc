#include "core/molecule.hh"

#include <algorithm>
#include <type_traits>

#include "hw/calibration.hh"

namespace molecule::core {

namespace calib = hw::calib;

/** Sim-time pause before every retry attempt. */
constexpr sim::SimTime kRetryBackoff = sim::SimTime::milliseconds(5);

Molecule::Molecule(hw::Computer &computer, MoleculeOptions options)
    : computer_(computer), options_(options)
{
    dep_ = std::make_unique<Deployment>(computer_);
    startup_ = std::make_unique<StartupManager>(*dep_, registry_,
                                                options_.startup);
    scheduler_ = std::make_unique<Scheduler>(*dep_, registry_);
    scheduler_->setStartupManager(startup_.get());
    scheduler_->installPlacement(options_.placement.make());
    dag_ = std::make_unique<DagEngine>(*dep_, *startup_, registry_);
    if (options_.faults != nullptr) {
        dep_->attachFaults(options_.faults);
        recovery_ = std::make_unique<RecoveryManager>(
            *dep_, *startup_, options_.tracer);
        options_.faults->addListener(recovery_.get());
    }
    for (std::size_t i = 0; i < computer_.fpgas().size(); ++i)
        fpgaLocks_.push_back(
            std::make_unique<sim::Semaphore>(simulation(), 1));
    for (std::size_t i = 0; i < computer_.gpus().size(); ++i)
        gpuLocks_.push_back(
            std::make_unique<sim::Semaphore>(simulation(), 1));
}

Molecule::~Molecule()
{
    if (options_.faults != nullptr && recovery_ != nullptr)
        options_.faults->removeListener(recovery_.get());
}

void
Molecule::registerCpuFunction(const std::string &name,
                              const std::vector<hw::PuType> &kinds)
{
    FunctionDef def;
    def.name = name;
    def.cpuWork = &catalog_.cpu(name);
    for (auto kind : kinds) {
        // DPU execution is priced below host CPU (§4.1).
        def.profiles.push_back(Profile{
            kind, kind == hw::PuType::Dpu ? 0.6 : 1.0});
    }
    registry_.add(std::move(def));
}

void
Molecule::registerFpgaFunction(const std::string &name,
                               std::uint64_t units)
{
    FunctionDef def;
    def.name = name;
    def.fpgaWork = &catalog_.fpga(name);
    def.fpgaUnits = units;
    // FPGA is the most expensive profile (§4.1).
    def.profiles.push_back(Profile{hw::PuType::FpgaHost, 3.0});
    registry_.add(std::move(def));
}

void
Molecule::registerGpuFunction(const std::string &name,
                              sim::SimTime kernelTime,
                              std::uint64_t ioBytes)
{
    FunctionDef def;
    def.name = name;
    def.gpuKernelTime = kernelTime;
    def.gpuIoBytes = ioBytes;
    def.profiles.push_back(Profile{hw::PuType::GpuHost, 2.0});
    registry_.add(std::move(def));
}

void
Molecule::start()
{
    if (started_)
        return;
    started_ = true;
    auto boot = [](StartupManager *s, int managerPu) -> sim::Task<> {
        co_await s->bootstrap(managerPu);
    };
    simulation().spawn(boot(startup_.get(), options_.managerPu));
    simulation().run();
}

/** A step's inputs; trivially copyable, so passed by value (task.hh). */
struct Molecule::Attempt
{
    const FunctionDef *def;
    Target target;
    InvokeOptions opts;
    int pu;                // manager PU (CPU/DPU) or the device's host
    int number;            // 1-based
    obs::PuList tried;     // PUs earlier attempts failed on
    sim::SimTime t0;       // invocation start: the deadline's origin
    obs::SpanContext ctx;  // the root span
    AcquiredInstance *acq; // out: CPU/DPU instance to release on success

    bool
    pastDeadline(sim::SimTime now) const
    {
        return opts.deadline > sim::SimTime(0) && now - t0 > opts.deadline;
    }

    Error
    missedDeadline(const char *phase, int at) const
    {
        return Error(Errc::DeadlineExceeded,
                     "'" + def->name + "' missed its deadline " + phase, at);
    }
};

Expected<int>
Molecule::rootPu(const FunctionDef &def, Target target)
{
    const auto dev = std::size_t(target.device); // negative: huge
    if (target.kind == Target::Cpu && def.cpuWork != nullptr)
        return options_.managerPu;
    if (target.kind == Target::Fpga && def.fpgaWork != nullptr &&
        dev < computer_.fpgas().size())
        return computer_.fpga(target.device).hostPuId();
    if (target.kind == Target::Gpu && def.gpuKernelTime > sim::SimTime(0) &&
        dev < computer_.gpus().size())
        return computer_.gpuDev(target.device).hostPuId();
    const char *const kKinds[] = {"CPU/DPU", "FPGA", "GPU"}; // by Kind
    return Error(Errc::InvalidArgument,
                 "'" + def.name + "' has no " + kKinds[target.kind] +
                     " profile, or device " +
                     std::to_string(target.device) + " does not exist");
}

sim::Task<Expected<obs::InvocationRecord>>
Molecule::run(const std::string &fn, Target target,
              const InvokeOptions &opts)
{
    // @p fn is read only before the first suspension (task.hh rule 1);
    // later code names the function through the registry's def.
    const FunctionDef *def = registry_.findPtr(fn);
    if (def == nullptr)
        co_return Error(Errc::NotFound, "unknown function '" + fn + "'");
    const Expected<int> pu = rootPu(*def, target);
    if (!pu.ok())
        co_return pu.error();
    auto &sim = simulation();

    // Root span of this invocation's trace: all attempts (and the
    // backoff pauses between them) nest under it.
    obs::Span root = obs::Span::root(options_.tracer, "invoke",
                                     obs::Layer::Core, pu.value());
    root.setDetail(fn.c_str());

    AcquiredInstance acq;
    static_assert(std::is_trivially_copyable_v<Attempt>);
    Attempt a{def, target, opts, pu.value(), 0, {},
              sim.now(), root.ctx(), &acq};
    Error lastErr;
    while (a.number < std::max(1, a.opts.maxAttempts)) {
        if (++a.number > 1) {
            obs::Span backoff(root.ctx(), "retry.backoff",
                              obs::Layer::Core, a.pu);
            backoff.setArg(a.number);
            if (options_.tracer != nullptr)
                options_.tracer->metrics().counter("invoke.retry").inc();
            co_await sim.delay(kRetryBackoff);
        }
        if (a.pastDeadline(sim.now())) {
            lastErr = a.missedDeadline("at admission", -1);
            break;
        }

        Expected<obs::InvocationRecord> r = co_await step(a);
        if (r.ok()) {
            obs::InvocationRecord rec = std::move(r.value());
            rec.function = def->name;
            rec.traceId = root.traceId();
            rec.attempts = a.number;
            rec.pusTried = a.tried;
            rec.failedOver = !a.tried.empty() && !a.tried.contains(rec.pu);
            rec.endToEnd = sim.now() - a.t0;
            // The measured window ends here; the keep-alive release
            // below is runtime bookkeeping and must not stretch the
            // root span.
            root.finish();
            if (acq.instance != nullptr && !acq.instance->dead &&
                !dep_->puDown(rec.pu)) {
                co_await startup_->release(*def, acq);
            }
            co_return rec;
        }

        lastErr = r.error();
        if (lastErr.pu() >= 0 && !a.tried.contains(lastErr.pu()))
            a.tried.push_back(lastErr.pu());
        if (lastErr.code() == Errc::DeadlineExceeded)
            break; // The budget is gone; a retry cannot make it.
        if (options_.tracer != nullptr)
            options_.tracer->metrics()
                .counter("invoke.attempt_failed")
                .inc();
    }

    if (options_.tracer != nullptr)
        options_.tracer->metrics().counter("invoke.failed").inc();
    if (a.number > 1 && lastErr.code() != Errc::DeadlineExceeded) {
        Error exhausted(Errc::RetriesExhausted,
                        "'" + def->name + "' failed after " +
                            std::to_string(a.number) + " attempts");
        exhausted.causedBy(lastErr).withRetries(a.number - 1);
        lastErr = std::move(exhausted);
    }
    lastErr.withPusTried(a.tried.toVector());
    co_return lastErr;
}

sim::Task<Expected<obs::InvocationRecord>>
Molecule::step(const Attempt &a)
{
    if (a.target.kind == Target::Fpga)
        return fpgaStep(a);
    return a.target.kind == Target::Gpu ? gpuStep(a) : cpuStep(a);
}

sim::Task<Expected<obs::InvocationRecord>>
Molecule::cpuStep(Attempt a)
{
    const FunctionDef &def = *a.def;
    auto &sim = simulation();
    obs::InvocationRecord rec;

    // Admission + placement: pure control-plane computation on the
    // manager PU before any simulated time passes.
    int target = -1;
    {
        obs::Span admit(a.ctx, "gateway.admit", obs::Layer::Core, a.pu);
        obs::Span place(a.ctx, "sched.place", obs::Layer::Core, a.pu);
        const bool failover = a.opts.failover;
        const int requested = a.number == 1 || !failover ? a.opts.pu : -1;
        const obs::PuList exclude = failover ? a.tried : obs::PuList{};
        const Expected<int> admitted =
            scheduler_->admit(def, requested, exclude.view());
        if (!admitted.ok())
            co_return admitted.error();
        target = admitted.value();
        place.setArg(target);
    }
    rec.pu = target;
    // Outstanding-work accounting for load-aware placement: every
    // exit path below must balance this with noteComplete.
    scheduler_->noteDispatch(target);

    AcquiredInstance acq =
        co_await startup_->acquire(def, target, a.pu, a.ctx);
    *a.acq = acq;
    if (acq.instance == nullptr) {
        scheduler_->noteComplete(target);
        co_return Error(Errc::NoMemory,
                        "admission failed for '" + def.name + "'", target);
    }
    if (dep_->puDown(target)) {
        scheduler_->noteComplete(target);
        co_return Error(Errc::PuCrashed,
                        "'" + def.name + "' lost its PU during startup",
                        target);
    }
    rec.coldStart = acq.cold;
    rec.startup = acq.startupTime;

    // Request delivery from the runtime into the instance.
    const auto commStart = sim.now();
    {
        obs::Span comm(a.ctx, "comm", obs::Layer::Core, target);
        if (a.pu != target) {
            co_await dep_->shimNet().transfer(a.pu, target,
                                              def.cpuWork->msgBytes,
                                              comm.ctx());
        }
        const bool isNode =
            def.cpuWork->image.language == sandbox::Language::Node;
        const sim::SimTime dispatch =
            options_.dagMode == DagCommMode::BaselineHttp
                ? calib::kHttpEdgeEndpointCost +
                      (isNode ? calib::kExpressDispatch
                              : calib::kFlaskDispatch)
                : calib::kIpcSerializeCost +
                      (isNode ? calib::kFifoDispatchNode
                              : calib::kFifoDispatchPython);
        obs::Span disp(comm.ctx(), "os.dispatch", obs::Layer::Os, target);
        co_await sim.delay(dep_->osOn(target).pu().netCost(dispatch));
    }
    rec.communication = sim.now() - commStart;

    if (a.pastDeadline(sim.now())) {
        if (!acq.instance->dead && !dep_->puDown(target))
            co_await startup_->release(def, acq);
        scheduler_->noteComplete(target);
        co_return a.missedDeadline("before execution", target);
    }

    const auto execStart = sim.now();
    const auto exec =
        acq.cold ? def.cpuWork->execCost * def.cpuWork->coldExecFactor
                 : def.cpuWork->execCost;
    core::Status st = co_await dep_->runcOn(target).invoke(
        acq.instance->id, exec, a.ctx);
    scheduler_->noteComplete(target);
    if (!st.ok())
        co_return st.error();
    rec.execution = sim.now() - execStart;
    co_return rec;
}

sim::Task<Expected<obs::InvocationRecord>>
Molecule::fpgaStep(Attempt a)
{
    const FunctionDef &def = *a.def;
    const int idx = a.target.device;
    auto &sim = simulation();
    if (dep_->puDown(a.pu))
        co_return Error(Errc::PuCrashed, "FPGA host PU is down", a.pu);

    // One caller per card from acquire through exec: a second caller's
    // composition would replace the image under this caller's kernel.
    sim::Semaphore &card = *fpgaLocks_[std::size_t(idx)];
    co_await card.acquire();
    sim::SemGuard hold(card);
    Expected<AcquiredFpga> acq =
        co_await startup_->acquireFpga(def, idx, a.ctx);
    if (!acq.ok())
        co_return acq.error();
    if (a.pastDeadline(sim.now()))
        co_return a.missedDeadline("before execution", a.pu);

    obs::InvocationRecord rec;
    rec.pu = a.pu;
    rec.coldStart = acq.value().cold;
    rec.startup = acq.value().startupTime;
    const auto execStart = sim.now();
    const std::uint64_t units = a.target.fpgaUnits;
    co_await dep_->runf(idx).invoke(
        acq.value().sandboxId, def.fpgaWork->kernelTime(units),
        def.fpgaWork->dmaInBytes(units), def.fpgaWork->dmaOutBytes(units),
        false, false, a.ctx);
    rec.execution = sim.now() - execStart;
    co_return rec;
}

sim::Task<Expected<obs::InvocationRecord>>
Molecule::gpuStep(Attempt a)
{
    const FunctionDef &def = *a.def;
    const int idx = a.target.device;
    auto &sim = simulation();
    if (dep_->puDown(a.pu))
        co_return Error(Errc::PuCrashed, "GPU host PU is down", a.pu);

    // One caller per GPU through acquire, so a second caller cannot
    // take a half-created sandbox for warm; kernels overlap after.
    AcquiredFpga acq;
    {
        sim::Semaphore &gpu = *gpuLocks_[std::size_t(idx)];
        co_await gpu.acquire();
        sim::SemGuard hold(gpu);
        acq = co_await startup_->acquireGpu(def, idx, a.ctx);
    }
    if (a.pastDeadline(sim.now()))
        co_return a.missedDeadline("before execution", a.pu);

    obs::InvocationRecord rec;
    rec.pu = a.pu;
    rec.coldStart = acq.cold;
    rec.startup = acq.startupTime;
    const auto execStart = sim.now();
    co_await dep_->rung(idx).invoke(acq.sandboxId, def.gpuKernelTime,
                                    def.gpuIoBytes, def.gpuIoBytes, a.ctx);
    rec.execution = sim.now() - execStart;
    co_return rec;
}

sim::Task<Expected<obs::ChainRecord>>
Molecule::invokeChain(const ChainSpec &spec, std::vector<int> placement,
                      bool prewarm)
{
    ChainSpec owned_spec = spec;
    std::vector<int> owned_placement = std::move(placement);
    if (owned_placement.empty()) {
        // Placement needs every node's CPU/DPU profile.
        for (const ChainNode &node : owned_spec.nodes) {
            const FunctionDef *def = registry_.findPtr(node.fn);
            if (def == nullptr || def->cpuWork == nullptr)
                co_return Error(Errc::NotFound,
                                "chain '" + owned_spec.name +
                                    "': no CPU/DPU function '" + node.fn +
                                    "'");
        }
        owned_placement = scheduler_->placeChain(owned_spec);
    }
    for (int pu : owned_placement) {
        if (dep_->puDown(pu))
            co_return Error(Errc::PuCrashed,
                            "chain '" + owned_spec.name +
                                "' placed on a down PU",
                            pu);
    }
    obs::Span root = obs::Span::root(options_.tracer, "chain",
                                     obs::Layer::Core,
                                     options_.managerPu);
    root.setDetail(owned_spec.name.c_str());
    co_return co_await dag_->run(owned_spec, owned_placement,
                                 options_.dagMode, prewarm,
                                 options_.managerPu, root.ctx());
}

} // namespace molecule::core
