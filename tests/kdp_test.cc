/**
 * @file
 * Unit tests for the programming-model layer: buffers, argument
 * lists, traces, and the execution context.
 */
#include <gtest/gtest.h>

#include "kdp/args.hh"
#include "kdp/buffer.hh"
#include "kdp/context.hh"
#include "kdp/kernel.hh"
#include "kdp/trace.hh"

using namespace dysel::kdp;

TEST(Buffer, AllocationsGetDisjointAddressRanges)
{
    Buffer<float> a(100, MemSpace::Global, "a");
    Buffer<float> b(100, MemSpace::Global, "b");
    const auto a_end = a.baseAddr() + a.sizeBytes();
    const auto b_end = b.baseAddr() + b.sizeBytes();
    EXPECT_TRUE(a_end <= b.baseAddr() || b_end <= a.baseAddr());
}

TEST(Buffer, ElementAddressing)
{
    Buffer<double> b(10, MemSpace::Global, "d");
    EXPECT_EQ(b.elemSize(), 8u);
    EXPECT_EQ(b.addrOf(3), b.baseAddr() + 24);
    EXPECT_EQ(b.sizeBytes(), 80u);
}

TEST(Buffer, CloneCopiesDataToFreshRange)
{
    Buffer<int> b(4, MemSpace::Global, "src");
    b.at(2) = 42;
    auto clone = b.clone();
    EXPECT_NE(clone->baseAddr(), b.baseAddr());
    EXPECT_EQ(static_cast<Buffer<int> &>(*clone).at(2), 42);
    // Mutating the clone leaves the original untouched.
    static_cast<Buffer<int> &>(*clone).at(2) = 7;
    EXPECT_EQ(b.at(2), 42);
}

TEST(Buffer, CopyFromRestoresContents)
{
    Buffer<int> a(4, MemSpace::Global, "a");
    Buffer<int> b(4, MemSpace::Global, "b");
    a.at(1) = 5;
    b.copyFrom(a);
    EXPECT_EQ(b.at(1), 5);
}

TEST(Buffer, SpaceIsMutable)
{
    Buffer<float> b(4, MemSpace::Global, "x");
    EXPECT_EQ(b.space(), MemSpace::Global);
    b.setSpace(MemSpace::Texture);
    EXPECT_EQ(b.space(), MemSpace::Texture);
}

TEST(BufferDeath, HostAccessOutOfBounds)
{
    Buffer<int> b(4, MemSpace::Global, "x");
    EXPECT_DEATH(b.at(4), "");
}

TEST(KernelArgs, TypedAccess)
{
    Buffer<float> f(4, MemSpace::Global, "f");
    Buffer<int> i(4, MemSpace::Global, "i");
    KernelArgs args;
    args.add(f).add(i).add(7).add(2.5);
    EXPECT_EQ(args.size(), 4u);
    EXPECT_EQ(&args.buf<float>(0), &f);
    EXPECT_EQ(&args.buf<int>(1), &i);
    EXPECT_EQ(args.scalarInt(2), 7);
    EXPECT_DOUBLE_EQ(args.scalarDouble(3), 2.5);
}

TEST(KernelArgs, RebindSwapsBufferSlot)
{
    Buffer<float> f(4, MemSpace::Global, "f");
    Buffer<float> g(4, MemSpace::Global, "g");
    KernelArgs args;
    args.add(f);
    args.rebind(0, g);
    EXPECT_EQ(&args.buf<float>(0), &g);
}

TEST(KernelArgsDeath, WrongTypePanics)
{
    Buffer<float> f(4, MemSpace::Global, "f");
    KernelArgs args;
    args.add(f);
    EXPECT_DEATH(args.buf<int>(0), "");
}

TEST(KernelArgsDeath, ScalarIsNotBuffer)
{
    KernelArgs args;
    args.add(3);
    EXPECT_DEATH(args.bufBase(0), "");
}

TEST(Trace, ResetClearsEverything)
{
    WorkGroupTrace t;
    t.reset(4);
    t.accesses.push_back({0, 0, 0, 4, MemSpace::Global, false, false});
    t.laneFlops[1] = 5;
    t.barriers = 2;
    t.reset(8);
    EXPECT_TRUE(t.accesses.empty());
    EXPECT_EQ(t.laneFlops.size(), 8u);
    EXPECT_EQ(t.totalFlops(), 0u);
    EXPECT_EQ(t.barriers, 0u);
}

TEST(GroupCtx, RecordsAccessesInExecutionOrder)
{
    Buffer<float> buf(16, MemSpace::Global, "b");
    WorkGroupTrace t;
    t.reset(4);
    GroupCtx g(3, 4, 2, &t);
    EXPECT_EQ(g.group(), 3u);
    EXPECT_EQ(g.unitBase(), 6u);
    EXPECT_EQ(g.globalId(1), 13u);

    g.load(buf, 5, 0);
    g.store(buf, 6, 1.0f, 1);
    ASSERT_EQ(t.accesses.size(), 2u);
    EXPECT_EQ(t.accesses[0].addr, buf.addrOf(5));
    EXPECT_FALSE(t.accesses[0].write);
    EXPECT_EQ(t.accesses[1].addr, buf.addrOf(6));
    EXPECT_TRUE(t.accesses[1].write);
    EXPECT_EQ(buf.at(6), 1.0f);
}

TEST(GroupCtx, PerLaneSequenceNumbers)
{
    Buffer<float> buf(16, MemSpace::Global, "b");
    WorkGroupTrace t;
    t.reset(2);
    GroupCtx g(0, 2, 1, &t);
    g.load(buf, 0, 0); // lane 0, seq 0
    g.load(buf, 1, 0); // lane 0, seq 1
    g.load(buf, 2, 1); // lane 1, seq 0
    EXPECT_EQ(t.accesses[0].seq, 0u);
    EXPECT_EQ(t.accesses[1].seq, 1u);
    EXPECT_EQ(t.accesses[2].seq, 0u);
    EXPECT_EQ(t.accesses[2].lane, 1u);
}

TEST(GroupCtx, AtomicAddReturnsOldAndFlags)
{
    Buffer<int> buf(4, MemSpace::Global, "b");
    buf.at(0) = 10;
    WorkGroupTrace t;
    t.reset(1);
    GroupCtx g(0, 1, 1, &t);
    EXPECT_EQ(g.atomicAdd(buf, 0, 5, 0), 10);
    EXPECT_EQ(buf.at(0), 15);
    EXPECT_TRUE(t.accesses[0].atomic);
    EXPECT_TRUE(t.accesses[0].write);
}

TEST(GroupCtx, LoadSpanIsOneRecord)
{
    Buffer<float> buf(8, MemSpace::Global, "b");
    for (int i = 0; i < 8; ++i)
        buf.at(i) = static_cast<float>(i);
    WorkGroupTrace t;
    t.reset(1);
    GroupCtx g(0, 1, 1, &t);
    float out[4];
    g.loadSpan(buf, 2, 4, 0, out);
    ASSERT_EQ(t.accesses.size(), 1u);
    EXPECT_EQ(t.accesses[0].bytes, 16u);
    EXPECT_EQ(out[0], 2.0f);
    EXPECT_EQ(out[3], 5.0f);
}

TEST(GroupCtx, FlopsAndBranches)
{
    WorkGroupTrace t;
    t.reset(2);
    GroupCtx g(0, 2, 1, &t);
    g.flops(0, 10);
    g.flops(1, 5);
    g.branch(0, true);
    g.branch(1, false);
    EXPECT_EQ(t.totalFlops(), 15u);
    ASSERT_EQ(t.branches.size(), 2u);
    EXPECT_TRUE(t.branches[0].taken);
    EXPECT_FALSE(t.branches[1].taken);
}

TEST(GroupCtx, ScratchpadAllocationAndAccess)
{
    WorkGroupTrace t;
    t.reset(2);
    GroupCtx g(0, 2, 1, &t);
    auto local = g.allocLocal<float>(8);
    EXPECT_EQ(g.scratchBytes(), 32u);
    EXPECT_EQ(t.scratchBytes, 32u);
    local.set(g, 3, 9.0f, 0);
    EXPECT_EQ(local.get(g, 3, 1), 9.0f);
    EXPECT_EQ(t.countSpace(MemSpace::Scratchpad), 2u);
    g.barrier();
    EXPECT_EQ(t.barriers, 1u);
}

TEST(GroupCtx, RebasedContextRestartsSequencesPerLane)
{
    Buffer<float> buf(64, MemSpace::Global, "b");
    WorkGroupTrace t;
    t.reset(4);
    GroupCtx g(5, 4, 1, &t);
    for (std::uint32_t lane = 0; lane < 4; ++lane) {
        g.load(buf, lane, lane);
        g.load(buf, 4 + lane, lane);
        g.branch(lane, true);
    }
    auto outer = g.allocLocal<float>(4);
    outer.set(g, 1, 7.0f, 1);
    const std::size_t before = t.accesses.size();
    const std::size_t branches_before = t.branches.size();
    {
        GroupCtx local = g.rebased(2);
        EXPECT_EQ(local.group(), 2u);
        EXPECT_EQ(local.unitBase(), 2u);
        EXPECT_EQ(local.scratchBytes(), 0u);
        auto inner = local.allocLocal<float>(4);
        for (std::uint32_t lane = 0; lane < 4; ++lane) {
            EXPECT_EQ(inner.get(local, lane, lane), 0.0f);
            inner.set(local, lane, 3.0f, lane);
            local.branch(lane, false);
            local.branch(lane, true);
        }
        for (std::uint32_t lane = 0; lane < 4; ++lane) {
            const MemAccess &get = t.accesses[before + 2 * lane];
            const MemAccess &set = t.accesses[before + 2 * lane + 1];
            EXPECT_EQ(get.lane, lane);
            EXPECT_EQ(get.seq, 0u) << "lane " << lane;
            EXPECT_EQ(set.seq, 1u) << "lane " << lane;
            EXPECT_EQ(t.branches[branches_before + 2 * lane].seq, 0u);
            EXPECT_EQ(t.branches[branches_before + 2 * lane + 1].seq, 1u);
        }
        // A second rebased context starts from zero again.
        GroupCtx again = g.rebased(3);
        again.load(buf, 0, 3);
        EXPECT_EQ(t.accesses.back().seq, 0u);
        auto fresh = again.allocLocal<float>(4);
        EXPECT_EQ(fresh.get(again, 0, 0), 0.0f);
    }
    {
        // A context reusing a closed nested context's storage starts
        // from zero too, with a zero-filled scratchpad.
        GroupCtx reused = g.rebased(4);
        EXPECT_EQ(reused.scratchBytes(), 0u);
        reused.load(buf, 0, 3);
        EXPECT_EQ(t.accesses.back().seq, 0u);
        reused.branch(0, true);
        EXPECT_EQ(t.branches.back().seq, 0u);
        auto fresh = reused.allocLocal<float>(4);
        EXPECT_EQ(fresh.get(reused, 2, 0), 0.0f);
    }
    // The parent's counters and scratchpad survive the nested contexts.
    g.load(buf, 8, 1);
    EXPECT_EQ(t.accesses.back().seq, 3u);
    g.branch(2, true);
    EXPECT_EQ(t.branches.back().seq, 1u);
    EXPECT_EQ(outer.get(g, 1, 1), 7.0f);
    EXPECT_EQ(g.scratchBytes(), 16u);
}

TEST(GroupCtxDeath, LaneOutOfRange)
{
    Buffer<float> buf(4, MemSpace::Global, "b");
    WorkGroupTrace t;
    t.reset(2);
    GroupCtx g(0, 2, 1, &t);
    EXPECT_DEATH(g.load(buf, 0, 2), "");
}

TEST(GroupCtxDeath, ScratchOutOfBounds)
{
    WorkGroupTrace t;
    t.reset(1);
    GroupCtx g(0, 1, 1, &t);
    auto local = g.allocLocal<int>(4);
    EXPECT_DEATH(local.get(g, 4, 0), "");
}

TEST(ItemCtx, ForwardsWithItsLane)
{
    Buffer<float> buf(8, MemSpace::Global, "b");
    WorkGroupTrace t;
    t.reset(4);
    GroupCtx g(2, 4, 1, &t);
    int visited = 0;
    forEachItem(g, [&](ItemCtx &item) {
        item.store(buf, item.localId(), static_cast<float>(visited));
        EXPECT_EQ(item.globalId(), 8u + item.localId());
        ++visited;
    });
    EXPECT_EQ(visited, 4);
    EXPECT_EQ(t.accesses.size(), 4u);
    EXPECT_EQ(t.accesses[3].lane, 3u);
}

TEST(KernelVariant, GroupsForRoundsUp)
{
    KernelVariant v;
    v.waFactor = 16;
    EXPECT_EQ(v.groupsFor(16), 1u);
    EXPECT_EQ(v.groupsFor(17), 2u);
    EXPECT_EQ(v.groupsFor(160), 10u);
}

TEST(MemSpaceNames, AllDistinct)
{
    EXPECT_STREQ(memSpaceName(MemSpace::Global), "global");
    EXPECT_STREQ(memSpaceName(MemSpace::Texture), "texture");
    EXPECT_STREQ(memSpaceName(MemSpace::Scratchpad), "scratchpad");
    EXPECT_STREQ(memSpaceName(MemSpace::Constant), "constant");
}
