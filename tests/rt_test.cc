// Seeded concurrency stress matrix for the real-thread lane runtime
// primitives (src/rt/, docs/CONCURRENCY.md). Each section pairs
// single-thread property tests against a model with genuinely concurrent
// stress loops; the binary carries the `threads` ctest label, so the
// threads-tsan / threads-asan presets run exactly these races under the
// sanitizers.
//
//  * SpscQueue: wraparound / full / empty properties vs a model deque,
//    then a two-thread ordered-transfer stress (every value arrives,
//    in order, exactly once — FIFO + no loss + no duplication).
//  * EpochBarrier: per-lane epoch accounting, join/leave churn with
//    workers arriving from short-lived threads, AwaitQuiesce.
//  * ThreadControl: the legal transition lattice, a pause/resume soak
//    with a worker spinning through AwaitRunnable.
//  * LanePool: dispatch flood across workers, first-failure latching,
//    pause/resume soak, stop-with-queued-jobs shutdown (must not hang),
//    a never-started pool's barriers, status lines, spin-then-park (an
//    idle worker parks past the spin budget and a later Dispatch wakes
//    it; Stop during the spin joins promptly).
//  * ClaimQueue: pool workers and the dispatcher share a batch in index
//    order; every item runs exactly once and the dispatcher's in-order
//    awaits see each result, at 0, 1, 2 and 4 workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "rt/claim_queue.h"
#include "rt/epoch_barrier.h"
#include "rt/lane_pool.h"
#include "rt/spin_wait.h"
#include "rt/spsc_queue.h"
#include "rt/thread_control.h"

namespace polydab::rt {
namespace {

// ---------------------------------------------------------------- SPSC

TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscQueue<int>(256).capacity(), 256u);
  EXPECT_EQ(SpscQueue<int>(257).capacity(), 512u);
}

TEST(SpscQueueTest, FullAndEmptyBoundaries) {
  SpscQueue<int> q(4);
  int out = -1;
  EXPECT_FALSE(q.TryPop(&out));  // empty from the start
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99));  // full
  EXPECT_EQ(q.SizeApprox(), 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.TryPop(&out));
  EXPECT_TRUE(q.EmptyApprox());
}

TEST(SpscQueueTest, FailedPushLeavesTheValueIntact) {
  // Regression: TryPush used to take its argument by value, consuming a
  // moved-in payload even when the ring was full — the caller's retry
  // loop then pushed an empty object. LanePool::Dispatch silently lost
  // jobs this way whenever a ring filled (the worker still Arrive()d on
  // the empty pop, so the epoch accounting looked perfectly healthy).
  SpscQueue<std::function<int()>> q(2);
  ASSERT_TRUE(q.TryPush([] { return 1; }));
  ASSERT_TRUE(q.TryPush([] { return 2; }));
  std::function<int()> job = [] { return 3; };
  EXPECT_FALSE(q.TryPush(std::move(job)));  // full: must not consume job
  ASSERT_TRUE(job != nullptr);
  EXPECT_EQ(job(), 3);
  std::function<int()> out;
  ASSERT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out(), 1);
  ASSERT_TRUE(q.TryPush(std::move(job)));  // retry succeeds with payload
  ASSERT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out(), 2);
  ASSERT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out(), 3);
}

TEST(SpscQueueTest, SeededRandomOpsMatchModelDequeAcrossWraparound) {
  // Single-threaded property test: a long seeded push/pop mix against a
  // model deque. The ring is tiny so the indices wrap thousands of
  // times, covering the tail-head masking arithmetic.
  SpscQueue<int64_t> q(4);
  std::deque<int64_t> model;
  Rng rng(1234);
  int64_t next = 0;
  for (int step = 0; step < 50000; ++step) {
    if (rng.Bernoulli(0.55)) {
      const bool pushed = q.TryPush(next);
      EXPECT_EQ(pushed, model.size() < q.capacity()) << "step " << step;
      if (pushed) model.push_back(next++);
    } else {
      int64_t out = -1;
      const bool popped = q.TryPop(&out);
      ASSERT_EQ(popped, !model.empty()) << "step " << step;
      if (popped) {
        ASSERT_EQ(out, model.front()) << "step " << step;
        model.pop_front();
      }
    }
    ASSERT_EQ(q.SizeApprox(), model.size()) << "step " << step;
  }
}

TEST(SpscQueueTest, TwoThreadTransferIsOrderedAndLossless) {
  // The real race: one producer hammering TryPush, one consumer hammering
  // TryPop, through a ring much smaller than the transfer. FIFO order,
  // no loss, no duplication — checked by requiring the consumer to see
  // exactly 0,1,2,...,N-1.
  constexpr int64_t kCount = 200000;
  SpscQueue<int64_t> q(8);
  std::atomic<bool> ok{true};
  std::thread consumer([&] {
    int64_t expect = 0;
    while (expect < kCount) {
      int64_t out = -1;
      if (!q.TryPop(&out)) {
        std::this_thread::yield();
        continue;
      }
      if (out != expect) {
        ok.store(false);
        return;
      }
      ++expect;
    }
  });
  for (int64_t i = 0; i < kCount; ++i) {
    while (!q.TryPush(i)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_TRUE(ok.load());
  EXPECT_TRUE(q.EmptyApprox());
}

// -------------------------------------------------------- EpochBarrier

TEST(EpochBarrierTest, AnnounceReturnsMonotonicPerLaneEpochs) {
  EpochBarrier b(2);
  EXPECT_EQ(b.Announce(0), 1u);
  EXPECT_EQ(b.Announce(0), 2u);
  EXPECT_EQ(b.Announce(1), 1u);  // lanes are independent
  EXPECT_EQ(b.dispatched(0), 2u);
  EXPECT_EQ(b.completed(0), 0u);
  b.Arrive(0);
  b.Arrive(0);
  b.Arrive(1);
  b.AwaitEpoch(0, 2);  // already satisfied: returns immediately
  b.AwaitQuiesce();
  EXPECT_EQ(b.completed(0), 2u);
}

TEST(EpochBarrierTest, AwaitEpochBlocksUntilTheWorkerArrives) {
  EpochBarrier b(1);
  const uint64_t epoch = b.Announce(0);
  std::atomic<bool> arrived{false};
  std::thread worker([&] {
    // Give the waiter a chance to actually block on the futex.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    arrived.store(true, std::memory_order_release);
    b.Arrive(0);
  });
  b.AwaitEpoch(0, epoch);
  EXPECT_TRUE(arrived.load(std::memory_order_acquire));
  worker.join();
}

TEST(EpochBarrierTest, JoinLeaveChurnKeepsCountersConsistent) {
  // Workers come and go as short-lived threads, each completing a random
  // seeded batch on its lane; the dispatcher announces everything up
  // front and quiesces at the end. Per-lane conservation must hold.
  constexpr int kLanes = 4;
  constexpr int kRounds = 25;
  EpochBarrier b(kLanes);
  Rng rng(99);
  uint64_t announced[kLanes] = {0, 0, 0, 0};
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> workers;
    for (int lane = 0; lane < kLanes; ++lane) {
      const int batch = static_cast<int>(rng.UniformInt(1, 8));
      uint64_t last = 0;
      for (int i = 0; i < batch; ++i) last = b.Announce(lane);
      announced[lane] = last;
      workers.emplace_back([&b, lane, batch] {
        for (int i = 0; i < batch; ++i) b.Arrive(lane);
      });
    }
    b.AwaitQuiesce();
    for (int lane = 0; lane < kLanes; ++lane) {
      EXPECT_EQ(b.completed(lane), announced[lane]) << "lane " << lane;
      EXPECT_EQ(b.dispatched(lane), announced[lane]) << "lane " << lane;
    }
    for (std::thread& w : workers) w.join();
  }
}

// ------------------------------------------------------- ThreadControl

TEST(ThreadControlTest, TransitionLattice) {
  ThreadControl c;
  EXPECT_EQ(c.state(), RunState::kIdle);
  EXPECT_FALSE(c.Pause().ok());   // idle: only Start is legal
  EXPECT_FALSE(c.Resume().ok());
  ASSERT_TRUE(c.Start().ok());
  EXPECT_EQ(c.state(), RunState::kRunning);
  EXPECT_FALSE(c.Start().ok());   // already running
  EXPECT_FALSE(c.Resume().ok());  // not paused
  ASSERT_TRUE(c.Pause().ok());
  EXPECT_EQ(c.state(), RunState::kPaused);
  EXPECT_FALSE(c.Pause().ok());   // already paused
  ASSERT_TRUE(c.Resume().ok());
  EXPECT_EQ(c.state(), RunState::kRunning);
  c.RequestStop();
  EXPECT_EQ(c.state(), RunState::kStopping);
  c.RequestStop();  // idempotent
  EXPECT_EQ(c.state(), RunState::kStopping);
  EXPECT_FALSE(c.Start().ok());  // terminal
  EXPECT_EQ(std::string(Name(RunState::kStopping)), "stopping");
}

TEST(ThreadControlTest, StatusLineNamesStateAndCountsTransitions) {
  ThreadControl c;
  EXPECT_EQ(c.StatusLine(), "state=idle transitions=0");
  ASSERT_TRUE(c.Start().ok());
  ASSERT_TRUE(c.Pause().ok());
  EXPECT_EQ(c.StatusLine(), "state=paused transitions=2");
}

TEST(ThreadControlTest, PauseResumeSoakWithASpinningWorker) {
  // A worker spins through AwaitRunnable while the owner flips
  // pause/resume many times, then stops. The worker must (a) never run
  // while paused — checked by parking proof below — and (b) observe the
  // stop and exit.
  ThreadControl c;
  ASSERT_TRUE(c.Start().ok());
  std::atomic<int64_t> iterations{0};
  std::thread worker([&] {
    while (c.AwaitRunnable()) {
      iterations.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(c.Pause().ok());
    // While paused, AwaitRunnable blocks: the iteration counter can
    // advance at most once more (a worker mid-iteration finishes it).
    const int64_t at_pause = iterations.load(std::memory_order_relaxed);
    std::this_thread::yield();
    EXPECT_LE(iterations.load(std::memory_order_relaxed), at_pause + 1);
    ASSERT_TRUE(c.Resume().ok());
  }
  c.RequestStop();
  worker.join();
  EXPECT_FALSE(c.AwaitRunnable());  // stopping: immediate false
}

// ------------------------------------------------------------ LanePool

TEST(LanePoolTest, StartValidatesOptions) {
  {
    LanePool pool;
    LanePool::Options o;
    o.workers = 0;
    EXPECT_FALSE(pool.Start(o).ok());
  }
  {
    LanePool pool;
    LanePool::Options o;
    o.queue_capacity = 0;
    EXPECT_FALSE(pool.Start(o).ok());
  }
  {
    LanePool pool;
    LanePool::Options o;
    o.workers = 2;
    ASSERT_TRUE(pool.Start(o).ok());
    EXPECT_FALSE(pool.Start(o).ok());  // already running
    EXPECT_EQ(pool.workers(), 2);
    pool.Stop();
  }
}

TEST(LanePoolTest, NeverStartedPoolQuiescesAndStopsCleanly) {
  // The simulator's threads = 0 run keeps an unstarted pool: zero
  // workers, so every solve is inline, and the AAO and shutdown barriers
  // must pass straight through it.
  LanePool pool;
  EXPECT_EQ(pool.workers(), 0);
  EXPECT_TRUE(pool.Quiesce().ok());
  EXPECT_TRUE(pool.Quiesce().ok());
  pool.Stop();
  pool.Stop();  // idempotent
  EXPECT_TRUE(pool.Quiesce().ok());
  EXPECT_EQ(pool.workers(), 0);
}

TEST(LanePoolTest, DispatchFloodCompletesEveryJobOnItsWorker) {
  // Flood all workers with tiny jobs through deliberately small rings,
  // await every epoch, and check per-worker sums: each job ran exactly
  // once on the worker it was dispatched to.
  constexpr int kWorkers = 3;
  constexpr int kJobsPerWorker = 5000;
  LanePool pool;
  LanePool::Options o;
  o.workers = kWorkers;
  o.queue_capacity = 4;
  ASSERT_TRUE(pool.Start(o).ok());
  std::atomic<int64_t> sums[kWorkers] = {};
  uint64_t last_epoch[kWorkers] = {};
  for (int j = 0; j < kJobsPerWorker; ++j) {
    for (int w = 0; w < kWorkers; ++w) {
      last_epoch[w] = pool.Dispatch(w, [&sums, w, j] {
        sums[w].fetch_add(j, std::memory_order_relaxed);
        return Status::OK();
      });
    }
  }
  for (int w = 0; w < kWorkers; ++w) {
    ASSERT_TRUE(pool.AwaitEpoch(w, last_epoch[w]).ok());
  }
  ASSERT_TRUE(pool.Quiesce().ok());
  constexpr int64_t kWant =
      static_cast<int64_t>(kJobsPerWorker) * (kJobsPerWorker - 1) / 2;
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(sums[w].load(), kWant) << "worker " << w;
  }
  EXPECT_EQ(pool.StatusLine(),
            "state=running workers=3 dispatched=15000 completed=15000 "
            "failed=0");
  pool.Stop();
  EXPECT_EQ(pool.state(), RunState::kStopping);
}

TEST(LanePoolTest, FirstFailureLatchesAndLaterAwaitsReportIt) {
  LanePool pool;
  LanePool::Options o;
  o.workers = 2;
  ASSERT_TRUE(pool.Start(o).ok());
  const uint64_t ok_epoch = pool.Dispatch(0, [] { return Status::OK(); });
  ASSERT_TRUE(pool.AwaitEpoch(0, ok_epoch).ok());
  const uint64_t bad_epoch = pool.Dispatch(
      1, [] { return Status::Internal("first boom"); });
  const Status failed = pool.AwaitEpoch(1, bad_epoch);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.ToString().find("first boom"), std::string::npos);
  // A later failure does not overwrite the latch; a healthy worker's
  // await reports the pool-wide failure too.
  const uint64_t second = pool.Dispatch(
      1, [] { return Status::Internal("second boom"); });
  const Status still = pool.AwaitEpoch(1, second);
  ASSERT_FALSE(still.ok());
  EXPECT_NE(still.ToString().find("first boom"), std::string::npos);
  EXPECT_FALSE(pool.Quiesce().ok());
  EXPECT_NE(pool.StatusLine().find("failed=1"), std::string::npos);
  pool.Stop();
}

TEST(LanePoolTest, PauseResumeSoakPreservesEveryJob) {
  // Interleave dispatching with pause/resume churn: paused workers hold
  // their queued jobs until Resume, and nothing is lost or doubled.
  // Each round stays under the ring capacity and drains after Resume —
  // dispatching past a full ring while paused would (by the documented
  // Dispatch contract) block forever.
  LanePool pool;
  LanePool::Options o;
  o.workers = 2;
  o.queue_capacity = 64;
  ASSERT_TRUE(pool.Start(o).ok());
  std::atomic<int64_t> ran{0};
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(pool.Pause().ok());
    uint64_t last[2] = {0, 0};
    for (int j = 0; j < 20; ++j) {
      const int w = j % 2;
      last[w] = pool.Dispatch(w, [&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      });
    }
    ASSERT_TRUE(pool.Resume().ok());
    ASSERT_TRUE(pool.AwaitEpoch(0, last[0]).ok());
    ASSERT_TRUE(pool.AwaitEpoch(1, last[1]).ok());
    ASSERT_EQ(ran.load(), (round + 1) * 20) << "round " << round;
  }
  ASSERT_TRUE(pool.Quiesce().ok());
  EXPECT_EQ(ran.load(), 50 * 20);
  pool.Stop();
}

TEST(LanePoolTest, StopWithQueuedJobsDoesNotHang) {
  // Pause so the queued jobs cannot drain, then Stop: the pool must
  // abandon the queue and join promptly instead of waiting for work
  // that will never run. (A hang here fails via the test timeout.)
  LanePool pool;
  LanePool::Options o;
  o.workers = 2;
  o.queue_capacity = 64;
  ASSERT_TRUE(pool.Start(o).ok());
  ASSERT_TRUE(pool.Pause().ok());
  std::atomic<int64_t> ran{0};
  for (int j = 0; j < 32; ++j) {
    pool.Dispatch(j % 2, [&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  pool.Stop();
  // Abandoned jobs are allowed (Stop documents it); doubled ones never.
  EXPECT_LE(ran.load(), 32);
}

TEST(LanePoolTest, StartStopSoak) {
  // Rapid lifecycle churn: spawn, do a little work, tear down, many
  // times. Under TSan this is the lane that catches init/shutdown races.
  for (int round = 0; round < 30; ++round) {
    LanePool pool;
    LanePool::Options o;
    o.workers = 1 + round % 3;
    o.queue_capacity = 8;
    ASSERT_TRUE(pool.Start(o).ok());
    std::atomic<int64_t> ran{0};
    uint64_t last = 0;
    for (int j = 0; j < 10; ++j) {
      last = pool.Dispatch(j % pool.workers(), [&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      });
    }
    ASSERT_TRUE(pool.Quiesce().ok());
    EXPECT_EQ(ran.load(), 10);
    (void)last;
    pool.Stop();
  }
}

/// Poll \p cond every 50 µs for up to \p limit; its final answer.
template <class Cond>
bool Eventually(Cond cond, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!cond()) {
    if (std::chrono::steady_clock::now() >= deadline) return cond();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

TEST(LanePoolTest, IdleWorkerParksPastTheSpinBudgetAndDispatchWakesIt) {
  // Idle gaps straddle the spin budget: some jobs land while the worker
  // still spins (no wake needed), others after it parked (Dispatch must
  // wake it). A lost wakeup hangs an AwaitEpoch and fails via the test
  // timeout.
  LanePool pool;
  LanePool::Options o;
  o.workers = 1;
  ASSERT_TRUE(pool.Start(o).ok());
  Rng rng(17);
  std::atomic<int64_t> ran{0};
  for (int round = 0; round < 300; ++round) {
    if (round % 10 == 0) {
      // Wait out the budget: the worker must park, then wake on demand.
      ASSERT_TRUE(Eventually([&] { return pool.parked(0); },
                             std::chrono::milliseconds(5000)))
          << "round " << round;
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(rng.Uniform(0.0, 2.0 * kSpinBudget.count()))));
    }
    const uint64_t epoch = pool.Dispatch(0, [&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
    ASSERT_TRUE(pool.AwaitEpoch(0, epoch).ok());
    ASSERT_EQ(ran.load(), round + 1);
  }
  pool.Stop();
}

TEST(LanePoolTest, StopWhileSpinningJoinsPromptly) {
  // Right after its job a worker spins on the ring; Stop must end the
  // spin at once instead of waiting it out (or spinning forever).
  for (int round = 0; round < 50; ++round) {
    LanePool pool;
    LanePool::Options o;
    o.workers = 2;
    ASSERT_TRUE(pool.Start(o).ok());
    uint64_t epochs[2] = {};
    for (int w = 0; w < 2; ++w) {
      epochs[w] = pool.Dispatch(w, [] { return Status::OK(); });
    }
    for (int w = 0; w < 2; ++w) ASSERT_TRUE(pool.AwaitEpoch(w, epochs[w]).ok());
    const auto t0 = std::chrono::steady_clock::now();
    pool.Stop();
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1))
        << "round " << round;
    EXPECT_EQ(pool.state(), RunState::kStopping);
  }
}

// ---------------------------------------------------------- ClaimQueue

TEST(ClaimQueueTest, WorkersAndDispatcherSolveEachGroupOnceInOrder) {
  // The refresh service's shape: a batch of groups, one claim job per
  // worker (at most one per group beyond the first), and a dispatcher
  // walking stale parts in oracle order — a part's group is numbered by
  // its first appearance, later parts may repeat earlier groups — and
  // awaiting each part's group before reading its result. Every group
  // must run exactly once, the walk must see every result (a plain
  // write, published only by the done flag), and with no workers the
  // dispatcher must solve each group lazily, at its first part.
  for (int workers : {0, 1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    LanePool pool;
    if (workers > 0) {
      LanePool::Options o;
      o.workers = workers;
      ASSERT_TRUE(pool.Start(o).ok());
    }
    ClaimQueue claims;
    Rng rng(100 + static_cast<uint64_t>(workers));
    std::vector<std::atomic<int>> runs(40);
    std::vector<int64_t> result(40);
    int64_t by_workers = 0;
    const std::thread::id dispatcher = std::this_thread::get_id();
    std::vector<uint8_t> on_worker(40);
    for (int round = 0; round < 200; ++round) {
      // The oracle-order walk: 1..40 parts over groups numbered by first
      // appearance.
      const int64_t parts = rng.UniformInt(1, 40);
      std::vector<size_t> walk;
      size_t groups = 0;
      for (int64_t p = 0; p < parts; ++p) {
        const bool repeat = groups > 0 && rng.Uniform(0.0, 1.0) < 0.4;
        walk.push_back(repeat ? static_cast<size_t>(rng.UniformInt(
                                    0, static_cast<int64_t>(groups) - 1))
                              : groups++);
      }
      for (size_t g = 0; g < groups; ++g) {
        runs[g].store(0, std::memory_order_relaxed);
        result[g] = -1;
      }
      auto solve = [&](size_t g) {
        // A few microseconds of work, so claims really interleave.
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(5);
        while (std::chrono::steady_clock::now() < until) {
        }
        result[g] = static_cast<int64_t>(g * g + 7);
        on_worker[g] = std::this_thread::get_id() != dispatcher;
        runs[g].fetch_add(1, std::memory_order_relaxed);
      };
      claims.Reset(groups);
      const size_t jobs =
          std::min(static_cast<size_t>(workers), groups - 1);
      std::vector<uint64_t> epochs(jobs);
      for (size_t w = 0; w < jobs; ++w) {
        epochs[w] = pool.Dispatch(static_cast<int>(w), [&] {
          claims.Drain(solve);
          return Status::OK();
        });
      }
      std::vector<size_t> seen;
      for (size_t g : walk) {
        const bool first =
            std::find(seen.begin(), seen.end(), g) == seen.end();
        if (workers == 0 && first) {
          ASSERT_FALSE(claims.done(g)) << "solved before its first part";
        }
        claims.Await(g, solve);
        ASSERT_TRUE(claims.done(g));
        ASSERT_EQ(result[g], static_cast<int64_t>(g * g + 7));
        if (workers == 0 && first && g + 1 < groups) {
          ASSERT_FALSE(claims.done(g + 1)) << "solved ahead of the walk";
        }
        seen.push_back(g);
      }
      ASSERT_EQ(seen, walk);
      for (size_t w = 0; w < jobs; ++w) {
        ASSERT_TRUE(pool.AwaitEpoch(static_cast<int>(w), epochs[w]).ok());
      }
      for (size_t g = 0; g < groups; ++g) {
        ASSERT_EQ(runs[g].load(), 1) << "round " << round << " group " << g;
        by_workers += on_worker[g];
      }
    }
    if (workers == 0) {
      EXPECT_EQ(by_workers, 0);
    } else {
      EXPECT_GT(by_workers, 0) << "no worker ever claimed a group";
    }
    pool.Stop();
  }
}

}  // namespace
}  // namespace polydab::rt
