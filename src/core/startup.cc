#include "core/startup.hh"

#include <algorithm>

#include "hw/calibration.hh"
#include "sim/logging.hh"

namespace molecule::core {

namespace calib = hw::calib;

namespace {

/** Pre-initialized function containers per PU at bootstrap. */
constexpr int kPooledContainersPerPu = 32;

} // namespace

StartupManager::StartupManager(Deployment &dep,
                               const FunctionRegistry &registry,
                               StartupOptions options)
    : dep_(dep), registry_(registry), options_(options),
      strategy_(options_.keepAlive.make())
{}

void
StartupManager::installKeepAlive(
    std::unique_ptr<KeepAliveStrategy> strategy)
{
    strategy_ = strategy != nullptr ? std::move(strategy)
                                    : options_.keepAlive.make();
}

WarmEntryView
StartupManager::entryView(const PoolKey &key,
                          const WarmEntry &entry) const
{
    WarmEntryView v;
    v.fn = key.first;
    v.pu = key.second;
    v.lastUsed = entry.lastUsed;
    v.freq = entry.freq;
    v.costMs = entry.costMs;
    v.sizeMb = entry.sizeMb;
    v.parkPriority = entry.parkPriority;
    return v;
}

void
StartupManager::noteEviction(const PoolKey &key,
                             const WarmEntry &victim)
{
    strategy_->onEvict(entryView(key, victim));
    ++evictions_;
    std::uint64_t h = 14695981039346656037ULL;
    for (char c : victim.sandboxId)
        h = (h ^ std::uint64_t(std::uint8_t(c))) * 1099511628211ULL;
    evictFp_.mix(h);
    evictFp_.mix(std::uint64_t(key.second));
    evictFp_.mix(std::uint64_t(evictions_));
}

sim::Task<>
StartupManager::bootstrap(int managerPu)
{
    if (bootstrapped_)
        co_return;
    bootstrapped_ = true;

    // Launch an executor on every other general-purpose PU via xSpawn
    // (Figure 6). The executor program is a thin command loop.
    dep_.shimNet().registerProgram("molecule-executor",
                                   [](xpu::XpuShim &, os::Process &) {});
    os::Process *manager = co_await dep_.osOn(managerPu).spawnProcess(
        "molecule-runtime", 32 << 20);
    MOLECULE_ASSERT(manager != nullptr, "manager spawn failed");
    xpu::XpuClient client(dep_.shimOn(managerPu), *manager);
    for (int pu : dep_.generalPus()) {
        if (pu == managerPu)
            continue;
        std::vector<xpu::CapGrant> capv;
        auto r = co_await client.xspawn(pu, "molecule-executor", capv);
        MOLECULE_ASSERT(r.ok(), "executor spawn on PU %d failed: %s", pu,
                        r.error().toString().c_str());
    }

    if (!options_.useCfork)
        co_return;

    // Prepare one template per language per PU plus the container
    // pools, concurrently across PUs.
    std::vector<sim::Task<>> preps;
    for (int pu : dep_.generalPus()) {
        auto prepOne = [](Deployment *dep, const FunctionRegistry *reg,
                          int target) -> sim::Task<> {
            auto &runc = dep->runcOn(target);
            bool preparedPython = false, preparedNode = false;
            // One generic template per language, seeded from the first
            // registered function image of that language.
            for (const auto *img : reg->imagesForTemplates()) {
                if (img->language == sandbox::Language::Python &&
                    !preparedPython) {
                    preparedPython =
                        co_await runc.prepareTemplate(*img);
                } else if (img->language == sandbox::Language::Node &&
                           !preparedNode) {
                    preparedNode = co_await runc.prepareTemplate(*img);
                }
            }
            co_await runc.prewarmFunctionContainers(
                kPooledContainersPerPu);
        };
        preps.push_back(prepOne(&dep_, &registry_, pu));
    }
    co_await sim::allOf(dep_.simulation(), std::move(preps));
}

sim::Task<>
StartupManager::commandRoundTrip(int managerPu, int targetPu,
                                 obs::SpanContext ctx)
{
    if (managerPu == targetPu)
        co_return;
    obs::Span span(ctx, "nipc.cmd-rtt", obs::Layer::Xpu, managerPu);
    // Command over nIPC, executor-side processing, response back.
    co_await dep_.shimNet().transfer(managerPu, targetPu, 160,
                                     span.ctx());
    co_await dep_.osOn(targetPu).swDelay(calib::kExecutorCommandCost);
    co_await dep_.shimNet().transfer(targetPu, managerPu, 64,
                                     span.ctx());
}

sim::Task<AcquiredInstance>
StartupManager::acquire(const FunctionDef &fn, int pu, int managerPu,
                        obs::SpanContext ctx)
{
    MOLECULE_ASSERT(fn.cpuWork != nullptr,
                    "function '%s' has no CPU/DPU workload",
                    fn.name.c_str());
    auto &sim = dep_.simulation();
    const auto t0 = sim.now();
    obs::Span span(ctx, "startup", obs::Layer::Core, pu);
    const PoolKey key{registry_.stableName(fn), pu};

    ++freq_[key];
    strategy_->onRequest(key.first, pu, sim.now());
    auto poolIt = warmPools_.find(key);
    while (poolIt != warmPools_.end() && !poolIt->second.empty()) {
        WarmEntry entry = std::move(poolIt->second.front());
        poolIt->second.pop_front();
        AcquiredInstance out;
        out.instance = dep_.runcOn(pu).find(entry.sandboxId);
        MOLECULE_ASSERT(out.instance != nullptr,
                        "warm pool held a dead sandbox");
        // An instance killed while parked (OOM, PU crash) is skipped;
        // exhausting the pool falls through to a cold start.
        if (out.instance->dead)
            continue;
        ++warmHits_;
        out.pu = pu;
        out.cold = false;
        out.startupTime = sim.now() - t0;
        co_return out;
    }

    // Cold start. Remote targets pay the executor command round-trip.
    ++coldStarts_;
    co_await commandRoundTrip(managerPu, pu, span.ctx());

    auto &runc = dep_.runcOn(pu);
    runc.setStartupPath(options_.useCfork
                            ? options_.cforkPath
                            : sandbox::StartupPath::ColdBoot);
    const std::string id =
        fn.name + "#" + std::to_string(nextSandboxId_++);
    sandbox::CreateRequest req{id, &fn.cpuWork->image, span.ctx()};
    const bool created = co_await runc.create(req);
    if (!created) {
        // Admission failure (memory exhausted on this PU).
        co_return AcquiredInstance{};
    }
    bool started = false;
    {
        obs::Span st(span.ctx(), "sandbox.start", obs::Layer::Sandbox,
                     pu);
        started = co_await runc.start(id);
    }
    MOLECULE_ASSERT(started, "sandbox '%s' failed to start", id.c_str());

    AcquiredInstance out;
    out.instance = runc.find(id);
    out.pu = pu;
    out.cold = true;
    out.startupTime = sim.now() - t0;
    knownColdMs_[key] = out.startupTime.toMilliseconds();
    co_return out;
}

sim::Task<>
StartupManager::release(const FunctionDef &fn, AcquiredInstance inst)
{
    if (!inst.instance)
        co_return;
    const PoolKey key{registry_.stableName(fn), inst.pu};
    WarmEntry entry;
    entry.sandboxId = inst.instance->id;
    entry.lastUsed = dep_.simulation().now();
    // Greedy-dual uses the *function's* cold-start cost (what an
    // eviction would make the next request pay), not this instance's.
    auto known = knownColdMs_.find(key);
    entry.costMs = known != knownColdMs_.end()
                       ? known->second
                       : inst.startupTime.toMilliseconds();
    entry.freq = freq_[key];
    entry.sizeMb =
        double(fn.cpuWork->image.mem.coldTotal()) / double(1 << 20);
    // The strategy stamps the parking priority (greedy-dual: clock +
    // freq * cost / size; order-insensitive strategies return 0).
    entry.parkPriority = strategy_->parkPriority(entryView(key, entry));
    warmPools_[key].push_back(std::move(entry));
    co_await evictIfNeeded(key);
    if (options_.globalWarmCapacityPerPu > 0)
        co_await evictGlobal(inst.pu);
}

sim::Task<>
StartupManager::evictIfNeeded(const PoolKey &key)
{
    auto &pool = warmPools_[key];
    const sim::SimTime now = dep_.simulation().now();
    while (pool.size() > options_.warmCapacity) {
        // Lowest strategy score goes; strict improvement keeps the
        // earliest-scanned entry on ties.
        std::size_t victim = 0;
        double victimScore =
            strategy_->score(entryView(key, pool[0]), now);
        for (std::size_t i = 1; i < pool.size(); ++i) {
            const double s =
                strategy_->score(entryView(key, pool[i]), now);
            if (s < victimScore) {
                victim = i;
                victimScore = s;
            }
        }
        const WarmEntry evicted = std::move(pool[victim]);
        pool.erase(pool.begin() + std::ptrdiff_t(victim));
        noteEviction(key, evicted);
        co_await dep_.runcOn(key.second).destroy(evicted.sandboxId);
        if (listener_ != nullptr)
            listener_->onInstancesGone(key.second);
    }
}

std::size_t
StartupManager::warmTotalOn(int pu) const
{
    std::size_t total = 0;
    for (const auto &[key, pool] : warmPools_)
        if (key.second == pu)
            total += pool.size();
    return total;
}

sim::Task<>
StartupManager::evictGlobal(int pu)
{
    const sim::SimTime now = dep_.simulation().now();
    while (warmTotalOn(pu) > options_.globalWarmCapacityPerPu) {
        // Find the global victim across this PU's pools: lowest
        // strategy score; strict improvement keeps the
        // earliest-scanned entry (pool-key order, then index) on ties.
        PoolKey victimKey{"", pu};
        std::size_t victimIdx = 0;
        double victimScore = 0.0;
        bool found = false;
        for (auto &[key, pool] : warmPools_) {
            if (key.second != pu || pool.empty())
                continue;
            for (std::size_t i = 0; i < pool.size(); ++i) {
                const double s =
                    strategy_->score(entryView(key, pool[i]), now);
                if (!found || s < victimScore) {
                    victimKey = key;
                    victimIdx = i;
                    victimScore = s;
                    found = true;
                }
            }
        }
        if (!found)
            co_return;
        auto &pool = warmPools_[victimKey];
        const WarmEntry evicted = std::move(pool[victimIdx]);
        pool.erase(pool.begin() + std::ptrdiff_t(victimIdx));
        noteEviction(victimKey, evicted);
        co_await dep_.runcOn(pu).destroy(evicted.sandboxId);
        if (listener_ != nullptr)
            listener_->onInstancesGone(pu);
    }
}

void
StartupManager::setFpgaHotSet(int fpgaIndex,
                              std::vector<std::string> funcIds)
{
    fpgaHotSets_[fpgaIndex] = std::move(funcIds);
}

sim::Task<Expected<AcquiredFpga>>
StartupManager::acquireFpga(const FunctionDef &fn, int fpgaIndex,
                            obs::SpanContext ctx)
{
    MOLECULE_ASSERT(fn.fpgaWork != nullptr,
                    "function '%s' has no FPGA workload",
                    fn.name.c_str());
    auto &sim = dep_.simulation();
    const auto t0 = sim.now();
    auto &runf = dep_.runf(fpgaIndex);
    obs::Span span(ctx, "startup", obs::Layer::Core,
                   dep_.computer().fpga(fpgaIndex).hostPuId());
    const std::string sandboxId = "fpga/" + fn.name;

    AcquiredFpga out;
    out.sandboxId = sandboxId;
    out.fpgaIndex = fpgaIndex;

    if (!runf.cached(fn.fpgaWork->image.funcId)) {
        // Not resident: compose one image from the hot set (which
        // always includes the requested function) and program it.
        ++coldStarts_;
        out.cold = true;
        std::vector<sandbox::CreateRequest> reqs;
        std::vector<std::string> hot = fpgaHotSets_[fpgaIndex];
        if (std::find(hot.begin(), hot.end(), fn.name) == hot.end())
            hot.push_back(fn.name);
        for (const auto &name : hot) {
            const FunctionDef &def = registry_.find(name);
            MOLECULE_ASSERT(def.fpgaWork != nullptr,
                            "hot-set fn '%s' has no FPGA image",
                            name.c_str());
            reqs.push_back(sandbox::CreateRequest{
                "fpga/" + name, &def.fpgaWork->image, span.ctx()});
        }
        const Expected<int> created = co_await runf.createVector(reqs);
        if (!created.ok()) {
            // Composition or (injected) reconfiguration failure: the
            // fabric holds no usable image; the caller may retry.
            co_return created.error();
        }
        MOLECULE_ASSERT(created.value() == int(reqs.size()),
                        "FPGA image composition failed (resources?)");
    } else {
        ++warmHits_;
    }
    bool started = false;
    {
        obs::Span st(span.ctx(), "sandbox.prep", obs::Layer::Sandbox,
                     dep_.computer().fpga(fpgaIndex).hostPuId());
        started = co_await runf.start(sandboxId);
    }
    if (!started)
        co_return Error(Errc::NotFound,
                        "FPGA sandbox '" + sandboxId +
                            "' failed to start (image not resident)",
                        dep_.computer().fpga(fpgaIndex).hostPuId());
    out.startupTime = sim.now() - t0;
    co_return Expected<AcquiredFpga>(std::move(out));
}

sim::Task<AcquiredFpga>
StartupManager::acquireGpu(const FunctionDef &fn, int gpuIndex,
                           obs::SpanContext ctx)
{
    auto &sim = dep_.simulation();
    const auto t0 = sim.now();
    auto &rung = dep_.rung(gpuIndex);
    obs::Span span(ctx, "startup", obs::Layer::Core,
                   dep_.computer().gpuDev(gpuIndex).hostPuId());
    const std::string sandboxId = "gpu/" + fn.name;

    AcquiredFpga out;
    out.sandboxId = sandboxId;
    out.fpgaIndex = gpuIndex;
    if (rung.state(sandboxId) == sandbox::SandboxState::Unknown) {
        ++coldStarts_;
        out.cold = true;
        sandbox::FunctionImage *img = gpuImage(fn);
        sandbox::CreateRequest req{sandboxId, img, span.ctx()};
        const bool created = co_await rung.create(req);
        MOLECULE_ASSERT(created, "GPU create failed for '%s'",
                        fn.name.c_str());
        bool started = false;
        {
            obs::Span st(span.ctx(), "sandbox.start",
                         obs::Layer::Sandbox,
                         dep_.computer().gpuDev(gpuIndex).hostPuId());
            started = co_await rung.start(sandboxId);
        }
        MOLECULE_ASSERT(started, "GPU start failed");
    } else {
        ++warmHits_;
    }
    out.startupTime = sim.now() - t0;
    co_return out;
}

sandbox::FunctionImage *
StartupManager::gpuImage(const FunctionDef &fn)
{
    auto it = gpuImages_.find(fn.name);
    if (it == gpuImages_.end()) {
        auto img = std::make_unique<sandbox::FunctionImage>();
        img->funcId = fn.name;
        img->language = sandbox::Language::CudaCpp;
        it = gpuImages_.emplace(fn.name, std::move(img)).first;
    }
    return it->second.get();
}

std::size_t
StartupManager::warmCount(std::string_view fn, int pu) const
{
    auto it = warmPools_.find(PoolKey{fn, pu});
    return it == warmPools_.end() ? 0 : it->second.size();
}

void
StartupManager::purgePu(int pu)
{
    for (auto &[key, pool] : warmPools_)
        if (key.second == pu)
            pool.clear();
    if (listener_ != nullptr)
        listener_->onInstancesGone(pu);
}

void
StartupManager::purgeFunction(std::string_view fn, int pu)
{
    auto it = warmPools_.find(PoolKey{fn, pu});
    if (it != warmPools_.end())
        it->second.clear();
    if (listener_ != nullptr)
        listener_->onInstancesGone(pu);
}

sim::Task<>
StartupManager::rewarmPu(int pu, obs::SpanContext ctx)
{
    // The reboot destroyed every instance, template and pooled
    // container on the PU; the pool entries pointing at them are
    // already purged at crash time (RecoveryManager), but a restart
    // between crash and purge is impossible, so purge again cheaply.
    purgePu(pu);
    if (!options_.useCfork)
        co_return;
    obs::Span span(ctx, "recovery.rewarm", obs::Layer::Core, pu);
    auto &runc = dep_.runcOn(pu);
    bool preparedPython = false, preparedNode = false;
    for (const auto *img : registry_.imagesForTemplates()) {
        if (img->language == sandbox::Language::Python &&
            !preparedPython) {
            preparedPython = co_await runc.prepareTemplate(*img);
        } else if (img->language == sandbox::Language::Node &&
                   !preparedNode) {
            preparedNode = co_await runc.prepareTemplate(*img);
        }
    }
    co_await runc.prewarmFunctionContainers(kPooledContainersPerPu);
}

} // namespace molecule::core
