#include "sandbox/runc.hh"

#include "hw/calibration.hh"
#include "sim/logging.hh"

namespace molecule::sandbox {

namespace calib = hw::calib;

const char *
toString(StartupPath p)
{
    switch (p) {
      case StartupPath::ColdBoot:
        return "cold-boot";
      case StartupPath::CforkNaive:
        return "cfork-naive";
      case StartupPath::CforkFuncContainer:
        return "cfork-func-container";
      case StartupPath::CforkCpusetOpt:
        return "cfork-cpuset-opt";
    }
    return "?";
}

sim::Task<bool>
RuncRuntime::prepareTemplate(const FunctionImage &image)
{
    const Language lang = image.language;
    if (templates_.count(lang))
        co_return true;

    TemplateState tmpl;
    tmpl.image = &image;
    tmpl.container =
        co_await os_.containers().create("tmpl-" + std::string(
            sandbox::toString(lang)));
    tmpl.proc = co_await os_.spawnProcess(
        "template-" + std::string(sandbox::toString(lang)), 0);
    if (!tmpl.proc)
        co_return false;
    // Boot the forkable language runtime inside the template.
    co_await os_.swDelay(runtimeColdStart(lang));
    tmpl.runtimeRegion = tmpl.proc->addressSpace().mapPrivate(
        "runtime/" + std::string(sandbox::toString(lang)),
        image.mem.runtimeShared);
    if (!tmpl.runtimeRegion)
        co_return false;
    if (image.mem.templateExtra > 0 &&
        !tmpl.proc->addressSpace().mapPrivate("template-extra",
                                              image.mem.templateExtra)) {
        co_return false;
    }
    templates_[lang] = std::move(tmpl);
    co_return true;
}

bool
RuncRuntime::hasTemplate(Language lang) const
{
    return templates_.count(lang) != 0;
}

os::Process *
RuncRuntime::templateProcess(Language lang)
{
    auto it = templates_.find(lang);
    return it == templates_.end() ? nullptr : it->second.proc;
}

sim::Task<int>
RuncRuntime::prewarmFunctionContainers(int n)
{
    int made = 0;
    for (int i = 0; i < n; ++i) {
        os::Container *c = co_await os_.containers().create(
            "pool-" + std::to_string(nextId_++));
        if (!c)
            break;
        pool_.push_back(c);
        ++made;
    }
    co_return made;
}

SandboxState
RuncRuntime::state(const std::string &sandboxId)
{
    Instance *inst = find(sandboxId);
    return inst ? inst->state : SandboxState::Unknown;
}

sim::Task<bool>
RuncRuntime::create(const CreateRequest &req)
{
    MOLECULE_ASSERT(req.image != nullptr, "create without an image");
    if (instances_.count(req.sandboxId))
        co_return false;
    auto inst = std::make_unique<Instance>();
    inst->id = req.sandboxId;
    inst->funcId = req.image->funcId;
    inst->image = req.image;
    inst->state = SandboxState::Creating;
    Instance *raw = inst.get();
    instances_[req.sandboxId] = std::move(inst);

    const bool useCfork = path_ != StartupPath::ColdBoot &&
                          hasTemplate(req.image->language);
    const obs::SpanContext ctx = req.ctx;
    // GCC 12 rule (task.hh): co_await only as a full statement or the
    // RHS of a simple assignment -- never inside ?: or if-conditions.
    bool ok = false;
    if (useCfork)
        ok = co_await createCfork(*raw, ctx);
    else
        ok = co_await createCold(*raw, ctx);
    if (!ok) {
        instances_.erase(raw->id);
        co_return false;
    }
    raw->state = SandboxState::Created;
    co_return true;
}

sim::Task<bool>
RuncRuntime::createCold(Instance &inst, obs::SpanContext ctx)
{
    obs::Span span(ctx, "sandbox.cold-boot", obs::Layer::Sandbox,
                   os_.pu().id());
    span.setDetail(inst.funcId.c_str());
    // Baseline path: fresh container, cold language runtime, imports.
    inst.container = co_await os_.containers().create(inst.id);
    inst.proc = co_await os_.spawnProcess(inst.funcId, 0, span.ctx());
    if (!inst.proc)
        co_return false;
    co_await os_.swDelay(runtimeColdStart(inst.image->language) +
                         inst.image->importCost);
    if (!inst.proc->addressSpace().mapPrivate(
            inst.funcId + "/cold", inst.image->mem.coldTotal())) {
        os_.exitProcess(*inst.proc);
        co_return false;
    }
    co_await os_.swDelay(calib::kInstanceSettleCost);
    co_return true;
}

sim::Task<bool>
RuncRuntime::createCfork(Instance &inst, obs::SpanContext ctx)
{
    obs::Span span(ctx, "sandbox.cfork", obs::Layer::Sandbox,
                   os_.pu().id());
    span.setDetail(inst.funcId.c_str());
    const Language language = inst.image->language;

    // 1. The forkable runtime merges the template's threads into one
    //    so Unix fork propagates the full state (§4.2).
    templates_.at(language).proc->setThreads(1);
    {
        obs::Span st(span.ctx(), "cfork.thread-merge",
                     obs::Layer::Sandbox, os_.pu().id());
        co_await os_.swDelay(calib::kThreadMergeCost);
    }

    // 2. fork() the template: all regions are COW-shared. A crash
    //    during the merge dropped the template (crashPurge).
    auto tmpl = templates_.find(language);
    if (tmpl == templates_.end())
        co_return false;
    inst.proc =
        co_await os_.fork(tmpl->second.proc->pid(), inst.id, span.ctx());
    if (!inst.proc)
        co_return false;
    inst.forked = true;

    // 3. Children do not keep template-only state; they get their own
    //    private heap instead.
    if (auto extra = inst.proc->addressSpace().findRegion("template-extra"))
        inst.proc->addressSpace().unmap(extra);
    if (!inst.proc->addressSpace().mapPrivate(
            inst.funcId + "/heap", inst.image->mem.privateBytes)) {
        os_.exitProcess(*inst.proc);
        co_return false;
    }

    // 4. Function container: fresh (naive) or pre-initialized.
    if (path_ == StartupPath::CforkNaive || pool_.empty()) {
        obs::Span st(span.ctx(), "cfork.container",
                     obs::Layer::Sandbox, os_.pu().id());
        inst.container = co_await os_.containers().create(inst.id);
    } else {
        inst.container = pool_.front();
        pool_.pop_front();
    }

    // 5. Reconfigure namespaces + cpuset cgroup attach. The cpuset
    //    lock discipline is the CpusetOpt ablation knob.
    os_.containers().setCpusetMode(
        path_ == StartupPath::CforkCpusetOpt
            ? os::CpusetMode::MutexPatch
            : os::CpusetMode::StockSemaphore);
    co_await os_.containers().attach(*inst.container, *inst.proc,
                                     span.ctx());

    // 6. Child re-expands its threads, loads the function's code and
    //    connects back to the runtime.
    {
        obs::Span st(span.ctx(), "cfork.expand-load",
                     obs::Layer::Sandbox, os_.pu().id());
        co_await os_.swDelay(calib::kThreadExpandCost +
                             inst.image->funcLoadCost +
                             calib::kInstanceSettleCost);
    }
    co_return true;
}

sim::Task<bool>
RuncRuntime::start(const std::string &sandboxId)
{
    Instance *inst = find(sandboxId);
    if (!inst || inst->state != SandboxState::Created)
        co_return false;
    co_await os_.syscall();
    inst->state = SandboxState::Running;
    co_return true;
}

sim::Task<>
RuncRuntime::kill(const std::string &sandboxId, int signal)
{
    (void)signal;
    Instance *inst = find(sandboxId);
    if (!inst)
        co_return;
    co_await os_.syscall();
    inst->state = SandboxState::Stopped;
}

sim::Task<>
RuncRuntime::destroy(const std::string &sandboxId)
{
    Instance *inst = find(sandboxId);
    if (!inst)
        co_return;
    if (inst->proc)
        os_.exitProcess(*inst->proc);
    if (inst->container)
        co_await os_.containers().destroy(*inst->container);
    instances_.erase(sandboxId);
}

sim::Task<core::Status>
RuncRuntime::invoke(const std::string &sandboxId,
                    sim::SimTime hostExecCost, obs::SpanContext ctx)
{
    obs::Span span(ctx, "sandbox.exec", obs::Layer::Sandbox,
                   os_.pu().id());
    Instance *inst = find(sandboxId);
    MOLECULE_ASSERT(inst != nullptr, "invoking unknown sandbox '%s'",
                    sandboxId.c_str());
    if (inst->dead) {
        span.setDetail("dead-on-entry");
        co_return core::Status(inst->deathCause,
                               "sandbox '" + sandboxId +
                                   "' killed before execution",
                               os_.pu().id());
    }
    MOLECULE_ASSERT(inst->state == SandboxState::Running,
                    "invoking non-running sandbox '%s'",
                    sandboxId.c_str());

    if (inst->forked && !inst->cowSettled) {
        // First run dirties part of the shared runtime: COW faults
        // (the Fig 14-b warm-boot penalty of cfork'd instances).
        auto region = inst->proc->addressSpace().findRegion(
            "runtime/" +
            std::string(sandbox::toString(inst->image->language)));
        if (region) {
            const auto bytes = std::uint64_t(
                double(region->bytes()) * inst->image->cowTouchFraction);
            const auto pages =
                inst->proc->addressSpace().touchCow(region, bytes);
            if (pages > 0) {
                obs::Span st(span.ctx(), "sandbox.cow-settle",
                             obs::Layer::Sandbox, os_.pu().id());
                st.setArg(std::int64_t(pages));
                co_await os_.swDelay(calib::kCowFaultPerPage *
                                     double(pages));
            }
        }
        inst->cowSettled = true;
    }
    {
        obs::Span hwspan(span.ctx(), "hw.compute", obs::Layer::Hw,
                         os_.pu().id());
        co_await os_.pu().compute(hostExecCost);
    }
    // An injected kill may have landed while the body was executing:
    // the CPU time is spent, the result is lost.
    if (inst->dead) {
        span.setDetail("killed-mid-exec");
        co_return core::Status(inst->deathCause,
                               "sandbox '" + sandboxId +
                                   "' killed during execution",
                               os_.pu().id());
    }
    co_return core::Status();
}

int
RuncRuntime::oomKill(const std::string &funcId)
{
    int killed = 0;
    for (auto &[id, inst] : instances_) {
        if (inst->funcId != funcId || inst->dead)
            continue;
        inst->dead = true;
        inst->deathCause = core::Errc::SandboxOomKilled;
        inst->state = SandboxState::Stopped;
        if (inst->proc) {
            os_.exitProcess(*inst->proc);
            inst->proc = nullptr;
        }
        // The container record is abandoned, not recycled: a killed
        // instance's cgroup is torn down by the kernel, not reused.
        inst->container = nullptr;
        ++killed;
    }
    return killed;
}

void
RuncRuntime::crashPurge()
{
    // Pointer-drop only: LocalOs::crashReset() reaps the processes and
    // containers wholesale, so exiting them here would double-free.
    for (auto &[id, inst] : instances_) {
        if (!inst->dead) {
            inst->dead = true;
            inst->deathCause = core::Errc::PuCrashed;
        }
        inst->state = SandboxState::Stopped;
        inst->proc = nullptr;
        inst->container = nullptr;
    }
    templates_.clear();
    pool_.clear();
}

Instance *
RuncRuntime::find(const std::string &sandboxId)
{
    auto it = instances_.find(sandboxId);
    return it == instances_.end() ? nullptr : it->second.get();
}

std::uint64_t
RuncRuntime::instanceRss(const std::string &sandboxId)
{
    Instance *inst = find(sandboxId);
    return inst && inst->proc ? inst->proc->addressSpace().rss() : 0;
}

double
RuncRuntime::instancePss(const std::string &sandboxId)
{
    Instance *inst = find(sandboxId);
    return inst && inst->proc ? inst->proc->addressSpace().pss() : 0.0;
}

std::uint64_t
RuncRuntime::templateRss(Language lang)
{
    os::Process *proc = templateProcess(lang);
    return proc ? proc->addressSpace().rss() : 0;
}

} // namespace molecule::sandbox
