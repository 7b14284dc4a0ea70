// Runtime-fabric tests: queue/semaphore semantics and the Ch. 4 cycle costs.
#include <gtest/gtest.h>

#include "src/rt/fabric.h"

namespace twill {
namespace {

TEST(HwQueueTest, FifoOrderAndCapacity) {
  HwQueue q(4);
  EXPECT_TRUE(q.empty());
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(q.full());
    q.push(i * 10, 0);
  }
  EXPECT_TRUE(q.full());
  for (uint32_t i = 0; i < 4; ++i) EXPECT_EQ(q.pop(), i * 10);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.enqueues(), 4u);
  EXPECT_EQ(q.dequeues(), 4u);
}

TEST(HwQueueTest, VisibilityLatency) {
  HwQueue q(8);
  q.push(99, /*visibleAt=*/10);
  EXPECT_FALSE(q.frontVisible(5));
  EXPECT_FALSE(q.frontVisible(9));
  EXPECT_TRUE(q.frontVisible(10));
  EXPECT_TRUE(q.frontVisible(100));
}

TEST(HwSemaphoreTest, CountingSemantics) {
  HwSemaphore s(2);
  EXPECT_TRUE(s.tryLower(1));
  EXPECT_TRUE(s.tryLower(1));
  EXPECT_FALSE(s.tryLower(1));  // empty
  s.raise(3);
  EXPECT_TRUE(s.tryLower(2));
  EXPECT_TRUE(s.tryLower(1));
  EXPECT_FALSE(s.tryLower(1));
}

TEST(BusModelTest, OneMessagePerCycle) {
  BusModel bus;
  EXPECT_EQ(bus.acquire(10), 10u);
  EXPECT_EQ(bus.acquire(10), 11u);  // same-cycle contention pushes back
  EXPECT_EQ(bus.acquire(10), 12u);
  EXPECT_EQ(bus.acquire(20), 20u);  // gap: bus idle in between
  EXPECT_EQ(bus.messages(), 4u);
}

TEST(PortModelTest, DualPortPerCycle) {
  PortModel p(2);
  EXPECT_EQ(p.acquire(5), 5u);
  EXPECT_EQ(p.acquire(5), 5u);   // second port
  EXPECT_EQ(p.acquire(5), 6u);   // third access spills to the next cycle
  EXPECT_EQ(p.acquire(6), 6u);   // second port of cycle 6
  EXPECT_EQ(p.acquire(7), 7u);
}

class PortFixture : public ::testing::Test {
protected:
  FabricConfig cfg;
  void build() {
    fabric = std::make_unique<Fabric>(cfg);
    fabric->addQueue(0);
    fabric->addSemaphore(0, 1);
  }
  std::unique_ptr<Fabric> fabric;
};

TEST_F(PortFixture, HwQueueOpCostsTwoCyclesPlusBus) {
  build();
  ThreadPort port(*fabric, /*isHW=*/true);
  port.now = 100;
  EXPECT_TRUE(port.tryProduce(0, 7));
  // No contention: grant == now, cost == the 2-cycle handshake (§4.3).
  EXPECT_EQ(port.lastCost, RuntimeTiming::kQueueOp);
  port.now = 200;
  uint32_t v = 0;
  EXPECT_TRUE(port.tryConsume(0, v));
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(port.lastCost, RuntimeTiming::kQueueOp);
}

TEST_F(PortFixture, SwPrimitiveOpCostsFiveCycles) {
  build();
  ThreadPort port(*fabric, /*isHW=*/false);
  port.now = 50;
  EXPECT_TRUE(port.tryProduce(0, 1));
  EXPECT_EQ(port.lastCost, RuntimeTiming::kProcessorPrimitiveOp);  // §4.5
}

TEST_F(PortFixture, SemaphoreCosts) {
  build();
  ThreadPort port(*fabric, /*isHW=*/true);
  port.now = 10;
  EXPECT_TRUE(port.trySemLower(0, 1));
  EXPECT_EQ(port.lastCost, RuntimeTiming::kSemLower);  // >= 2 cycles (§4.2)
  port.now = 20;
  EXPECT_TRUE(port.trySemRaise(0, 1));
  EXPECT_EQ(port.lastCost, RuntimeTiming::kSemRaise);  // 1 cycle (§4.2)
}

TEST_F(PortFixture, ProduceBlocksWhenFull) {
  cfg.queueCapacity = 2;
  build();
  ThreadPort port(*fabric, /*isHW=*/true);
  port.now = 0;
  EXPECT_TRUE(port.tryProduce(0, 1));
  EXPECT_TRUE(port.tryProduce(0, 2));
  EXPECT_FALSE(port.tryProduce(0, 3));  // full: caller must retry
  uint32_t v;
  port.now = 100;  // past the visibility latency
  EXPECT_TRUE(port.tryConsume(0, v));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(port.tryProduce(0, 3));  // space again
}

TEST_F(PortFixture, ConsumeBlocksOnEmptyAndOnLatency) {
  cfg.queueLatency = 10;
  build();
  ThreadPort port(*fabric, /*isHW=*/true);
  uint32_t v;
  port.now = 0;
  EXPECT_FALSE(port.tryConsume(0, v));  // empty
  EXPECT_TRUE(port.tryProduce(0, 42));
  port.now = 5;
  EXPECT_FALSE(port.tryConsume(0, v));  // produced but not yet visible
  port.now = 10;
  EXPECT_TRUE(port.tryConsume(0, v));
  EXPECT_EQ(v, 42u);
}

TEST_F(PortFixture, BusContentionDelaysGrants) {
  build();
  ThreadPort a(*fabric, /*isHW=*/true);
  ThreadPort b(*fabric, /*isHW=*/true);
  a.now = 0;
  b.now = 0;
  EXPECT_TRUE(a.tryProduce(0, 1));
  EXPECT_TRUE(b.tryProduce(0, 2));
  // b's message waits one bus slot behind a's.
  EXPECT_EQ(b.lastCost, RuntimeTiming::kQueueOp + 1);
}

TEST_F(PortFixture, SemLowerBlocksAtZero) {
  build();
  ThreadPort port(*fabric, /*isHW=*/true);
  port.now = 0;
  EXPECT_TRUE(port.trySemLower(0, 1));   // initial count 1
  EXPECT_FALSE(port.trySemLower(0, 1));  // now zero
  EXPECT_TRUE(port.trySemRaise(0, 2));
  EXPECT_TRUE(port.trySemLower(0, 2));
}

}  // namespace
}  // namespace twill
