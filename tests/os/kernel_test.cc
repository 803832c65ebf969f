/** @file Unit tests for LocalOs processes, FIFOs and containers. */

#include <gtest/gtest.h>

#include "hw/calibration.hh"
#include "hw/computer.hh"
#include "os/kernel.hh"

namespace {

namespace calib = molecule::hw::calib;
using molecule::hw::buildCpuDpuServer;
using molecule::hw::Computer;
using molecule::hw::DpuGeneration;
using molecule::os::Container;
using molecule::os::CpusetMode;
using molecule::os::FifoMessage;
using molecule::os::LocalOs;
using molecule::os::Process;
using molecule::sim::Simulation;
using molecule::sim::SimTime;
using molecule::sim::Task;
using namespace molecule::sim::literals;

struct OsFixture : ::testing::Test
{
    Simulation sim;
    std::unique_ptr<Computer> computer =
        buildCpuDpuServer(sim, 1, DpuGeneration::Bf1);
    LocalOs hostOs{computer->pu(0)};
    LocalOs dpuOs{computer->pu(1)};
};

Task<>
spawnIt(LocalOs &os, std::string name, std::uint64_t bytes,
        Process **out)
{
    *out = co_await os.spawnProcess(std::move(name), bytes);
}

TEST_F(OsFixture, SpawnCreatesProcessAndChargesMemory)
{
    Process *p = nullptr;
    sim.spawn(spawnIt(hostOs, "python", 10 << 20, &p));
    sim.run();
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(p->alive());
    EXPECT_EQ(p->addressSpace().rss(), std::uint64_t(10 << 20));
    EXPECT_EQ(hostOs.physicalUsed(), std::uint64_t(10 << 20));
    EXPECT_EQ(sim.now(), calib::kSpawnProcessCost);
    EXPECT_EQ(hostOs.findProcess(p->pid()), p);
}

TEST_F(OsFixture, SpawnOnDpuIsSlower)
{
    Process *p = nullptr;
    sim.spawn(spawnIt(dpuOs, "python", 1 << 20, &p));
    sim.run();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(sim.now(), calib::kSpawnProcessCost * calib::kBf1SwFactor);
}

Task<>
forkIt(LocalOs &os, Process &parent, Process **out)
{
    const std::string child = parent.name() + "-child";
    *out = co_await os.fork(parent.pid(), child);
}

TEST_F(OsFixture, ForkSharesMemoryCow)
{
    Process *parent = nullptr;
    sim.spawn(spawnIt(hostOs, "tmpl", 8 << 20, &parent));
    sim.run();
    Process *child = nullptr;
    sim.spawn(forkIt(hostOs, *parent, &child));
    sim.run();
    ASSERT_NE(child, nullptr);
    // Fork adds no physical memory: everything is COW-shared.
    EXPECT_EQ(hostOs.physicalUsed(), std::uint64_t(8 << 20));
    EXPECT_EQ(child->addressSpace().rss(), std::uint64_t(8 << 20));
    EXPECT_DOUBLE_EQ(child->addressSpace().pss(), double(4 << 20));
}

TEST_F(OsFixture, ExitReleasesMemory)
{
    Process *p = nullptr;
    sim.spawn(spawnIt(hostOs, "x", 4 << 20, &p));
    sim.run();
    hostOs.exitProcess(*p);
    EXPECT_EQ(hostOs.physicalUsed(), 0u);
    EXPECT_EQ(hostOs.processCount(), 0u);
}

TEST_F(OsFixture, SpawnFailsWhenMemoryExhausted)
{
    Process *p = nullptr;
    // Xeon has 192 GB; ask for more.
    sim.spawn(spawnIt(hostOs, "huge", 200ULL << 30, &p));
    sim.run();
    EXPECT_EQ(p, nullptr);
}

Task<>
fifoWriter(LocalOs &os, std::string name, std::uint64_t bytes)
{
    FifoMessage msg{bytes, "req"};
    co_await os.findFifo(name)->write(msg);
}

Task<>
fifoReader(LocalOs &os, std::string name, SimTime *when,
           FifoMessage *out)
{
    *out = co_await os.findFifo(name)->read();
    *when = os.simulation().now();
}

TEST_F(OsFixture, FifoLatencyMatchesLinuxScaleOnCpu)
{
    hostOs.createFifo("f");
    SimTime when;
    FifoMessage msg;
    sim.spawn(fifoReader(hostOs, "f", &when, &msg));
    sim.spawn(fifoWriter(hostOs, "f", 64));
    sim.run();
    EXPECT_EQ(msg.bytes, 64u);
    EXPECT_EQ(msg.tag, "req");
    // Fig 8: local Linux FIFO on the host CPU ~8-16 us.
    EXPECT_GT(when.toMicroseconds(), 5.0);
    EXPECT_LT(when.toMicroseconds(), 16.0);
}

TEST_F(OsFixture, FifoLatencyOnDpuIsInLinuxDpuBand)
{
    dpuOs.createFifo("f");
    SimTime when;
    FifoMessage msg;
    sim.spawn(fifoReader(dpuOs, "f", &when, &msg));
    sim.spawn(fifoWriter(dpuOs, "f", 2048));
    sim.run();
    // Fig 8: Linux FIFO on BF-1 tops out below ~100 us at 2 KB.
    EXPECT_GT(when.toMicroseconds(), 30.0);
    EXPECT_LT(when.toMicroseconds(), 110.0);
}

TEST_F(OsFixture, FifoGrowsWithMessageSize)
{
    hostOs.createFifo("a");
    hostOs.createFifo("b");
    SimTime t16, t2048;
    FifoMessage m;
    sim.spawn(fifoReader(hostOs, "a", &t16, &m));
    sim.spawn(fifoWriter(hostOs, "a", 16));
    sim.run();
    Simulation sim2;
    // fresh sim to avoid clock offsets: reuse fixture's second FIFO
    SimTime start = sim.now();
    sim.spawn(fifoReader(hostOs, "b", &t2048, &m));
    sim.spawn(fifoWriter(hostOs, "b", 2048));
    sim.run();
    EXPECT_GT((t2048 - start).raw(), t16.raw());
}

TEST_F(OsFixture, FifoNamesAreManaged)
{
    EXPECT_EQ(hostOs.findFifo("nope"), nullptr);
    hostOs.createFifo("x");
    EXPECT_NE(hostOs.findFifo("x"), nullptr);
    hostOs.removeFifo("x");
    EXPECT_EQ(hostOs.findFifo("x"), nullptr);
}

Task<>
makeContainer(LocalOs &os, std::string id, Container **out)
{
    *out = co_await os.containers().create(std::move(id));
}

Task<>
attachIt(LocalOs &os, Container &c, Process &p)
{
    co_await os.containers().attach(c, p);
}

TEST_F(OsFixture, ContainerCreateAttachDestroy)
{
    Container *c = nullptr;
    sim.spawn(makeContainer(hostOs, "func-1", &c));
    sim.run();
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(sim.now(), calib::kContainerStartCost);
    EXPECT_EQ(hostOs.containers().find("func-1"), c);

    Process *p = nullptr;
    sim.spawn(spawnIt(hostOs, "worker", 1 << 20, &p));
    sim.run();
    const auto t0 = sim.now();
    sim.spawn(attachIt(hostOs, *c, *p));
    sim.run();
    // Stock kernel: namespace reconfig + semaphore cpuset attach.
    EXPECT_EQ(sim.now() - t0, hostOs.scaledSw(calib::kNamespaceReconfigCost +
                                              calib::kCpusetAttachSemaphore));
    EXPECT_EQ(c->processes().size(), 1u);

    auto d = [](LocalOs &os, Container &cc) -> Task<> {
        co_await os.containers().destroy(cc);
    };
    sim.spawn(d(hostOs, *c));
    sim.run();
    EXPECT_EQ(hostOs.containers().find("func-1"), nullptr);
}

TEST_F(OsFixture, CpusetMutexPatchIsFaster)
{
    hostOs.containers().setCpusetMode(CpusetMode::MutexPatch);
    Container *c = nullptr;
    sim.spawn(makeContainer(hostOs, "c", &c));
    sim.run();
    Process *p = nullptr;
    sim.spawn(spawnIt(hostOs, "w", 1 << 20, &p));
    sim.run();
    const auto t0 = sim.now();
    sim.spawn(attachIt(hostOs, *c, *p));
    sim.run();
    const auto mutexCost = sim.now() - t0;
    EXPECT_LT(mutexCost,
              hostOs.scaledSw(calib::kCpusetAttachSemaphore));
}

TEST_F(OsFixture, ConcurrentCpusetAttachesConvoy)
{
    // The global cpuset lock serializes concurrent attaches: 4 stock
    // attaches take ~4x the lock hold time.
    Container *c = nullptr;
    sim.spawn(makeContainer(hostOs, "c", &c));
    sim.run();
    std::vector<Process *> procs(4, nullptr);
    for (int i = 0; i < 4; ++i)
        sim.spawn(spawnIt(hostOs, "w" + std::to_string(i), 1 << 20,
                          &procs[std::size_t(i)]));
    sim.run();
    const auto t0 = sim.now();
    for (auto *p : procs)
        sim.spawn(attachIt(hostOs, *c, *p));
    sim.run();
    const auto elapsed = sim.now() - t0;
    const auto hold = hostOs.scaledSw(calib::kCpusetAttachSemaphore);
    EXPECT_GE(elapsed, hold * 3.9);
}

} // namespace
