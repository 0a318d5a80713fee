// Seeded concurrency stress matrix for the refresh service's worker pool
// (src/rt/batch_pool.h, docs/CONCURRENCY.md). The binary carries the
// `threads` ctest label, so the threads-tsan / threads-asan presets (and
// threads-tsan-stress, which repeats them) run exactly these races under
// the sanitizers.
//
//  * BatchPool lifecycle: start validation, a never-started pool (the
//    simulator's threads = 0) running every item on the owner, start/stop
//    cycling, Stop during a worker's spin.
//  * Wake-up: Open(n) wakes exactly min(workers, n - 1) workers, the count
//    rt_fail_at indexes; an idle worker parks past the spin budget and a
//    later Open wakes it, and an owner parked in Await or Close is woken
//    by the worker it waits for (a lost wake-up hangs the test).
//  * Batches: thousands of back-to-back Open/Await/Close rounds run every
//    item exactly once and leave no worker inside when Close returns; the
//    first failure latches while later batches still drain.
//  * The claim queue: workers and the owner share a batch in index order;
//    every item runs exactly once and the owner's in-order awaits see each
//    result, at 0, 1, 2 and 4 workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "rt/batch_pool.h"
#include "rt/spin_wait.h"

namespace polydab::rt {
namespace {

/// Busy-wait \p us microseconds, so claims really interleave.
void BusyFor(int64_t us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

// ----------------------------------------------------------- lifecycle

TEST(BatchPoolTest, StartValidatesWorkers) {
  {
    BatchPool pool;
    EXPECT_FALSE(pool.Start(0).ok());
    EXPECT_FALSE(pool.Start(-1).ok());
    EXPECT_EQ(pool.workers(), 0);
  }
  BatchPool pool;
  ASSERT_TRUE(pool.Start(2).ok());
  EXPECT_FALSE(pool.Start(2).ok());  // already started
  EXPECT_EQ(pool.workers(), 2);
  pool.Stop();
  EXPECT_FALSE(pool.Start(2).ok());  // a stopped pool stays stopped
  EXPECT_EQ(pool.workers(), 0);
}

TEST(BatchPoolTest, NeverStartedPoolRunsEveryItemInline) {
  // The simulator's threads = 0 run keeps an unstarted pool: every item
  // runs on the owner, lazily at its Await or else at Close, and the
  // fault hook has no worker to fail.
  BatchPool pool;
  const std::thread::id owner = std::this_thread::get_id();
  std::vector<int> runs(8);
  bool off_owner = false;
  auto work = [&](size_t i) {
    ++runs[i];
    off_owner |= std::this_thread::get_id() != owner;
  };
  pool.Open(8, work, /*fail_at=*/1);
  EXPECT_FALSE(pool.done(0));  // nothing runs before it is needed
  pool.Await(2);
  EXPECT_TRUE(pool.done(2));
  EXPECT_FALSE(pool.done(3));
  EXPECT_EQ(runs, (std::vector<int>{1, 1, 1, 0, 0, 0, 0, 0}));
  ASSERT_TRUE(pool.Close().ok());
  EXPECT_EQ(runs, std::vector<int>(8, 1));
  EXPECT_FALSE(off_owner);
  pool.Open(0, work);
  EXPECT_TRUE(pool.Close().ok());
  pool.Stop();
  pool.Stop();  // idempotent
  EXPECT_EQ(pool.workers(), 0);
}

TEST(BatchPoolTest, StartStopSoak) {
  // Rapid lifecycle churn: spawn, run a few batches, tear down, many
  // times. Under TSan this is the lane that catches init/shutdown races.
  for (int round = 0; round < 30; ++round) {
    BatchPool pool;
    ASSERT_TRUE(pool.Start(1 + round % 3).ok());
    std::atomic<int64_t> ran{0};
    for (int batch = 0; batch < 10; ++batch) {
      pool.Open(static_cast<size_t>(batch), [&ran](size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
      ASSERT_TRUE(pool.Close().ok());
    }
    EXPECT_EQ(ran.load(), 45);
    pool.Stop();
  }
}

TEST(BatchPoolTest, StopWhileSpinningJoinsPromptly) {
  // Right after a batch its workers spin on their wake words; Stop must
  // end the spin at once instead of waiting it out (or spinning forever).
  for (int round = 0; round < 50; ++round) {
    BatchPool pool;
    ASSERT_TRUE(pool.Start(2).ok());
    pool.Open(3, [](size_t) {});
    ASSERT_TRUE(pool.Close().ok());
    const auto t0 = std::chrono::steady_clock::now();
    pool.Stop();
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1))
        << "round " << round;
  }
}

// -------------------------------------------------------------- wake-up

TEST(BatchPoolTest, OpenWakesOneWorkerPerItemBeyondTheFirst) {
  // rt_fail_at indexes woken workers, so the count is the contract: with
  // fail_at = k on a fresh pool, Close fails exactly when Open woke at
  // least k workers. Only woken workers run items, and a failing worker
  // runs none.
  for (int workers : {1, 2, 3, 4}) {
    for (size_t n : {0, 1, 2, 3, 5, 8}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " n=" + std::to_string(n));
      const int64_t woken =
          n < 2 ? 0 : std::min<int64_t>(workers, static_cast<int64_t>(n) - 1);
      for (int64_t fail_at : {woken, woken + 1}) {
        if (fail_at == 0) continue;
        BatchPool pool;
        ASSERT_TRUE(pool.Start(workers).ok());
        std::mutex mu;
        std::set<std::thread::id> runners;
        pool.Open(
            n,
            [&](size_t) {
              BusyFor(20);
              std::lock_guard<std::mutex> lock(mu);
              runners.insert(std::this_thread::get_id());
            },
            fail_at);
        for (size_t i = 0; i < n; ++i) pool.Await(i);
        const Status closed = pool.Close();
        EXPECT_EQ(closed.ok(), fail_at > woken) << "fail_at=" << fail_at;
        if (!closed.ok()) {
          EXPECT_NE(closed.ToString().find("injected worker abort"),
                    std::string::npos);
        }
        // Runners: the owner plus the woken workers that did not fail.
        EXPECT_LE(static_cast<int64_t>(runners.size()),
                  1 + woken - (closed.ok() ? 0 : 1));
      }
    }
  }
  // The count runs over the pool's life: two 3-worker wakes, then the
  // fourth woken worker is the second batch's first.
  BatchPool pool;
  ASSERT_TRUE(pool.Start(3).ok());
  pool.Open(4, [](size_t) {}, /*fail_at=*/4);
  EXPECT_TRUE(pool.Close().ok());
  pool.Open(2, [](size_t) {}, /*fail_at=*/4);
  EXPECT_FALSE(pool.Close().ok());
}

TEST(BatchPoolTest, IdleWorkerParksPastTheSpinBudgetAndOpenWakesIt) {
  // Idle gaps straddle the spin budget: some batches open while the
  // worker still spins (no wake-up needed), others long after it parked
  // (Open must wake it). Close waits for the woken worker to leave, so a
  // lost wake-up hangs it and fails via the test timeout.
  BatchPool pool;
  ASSERT_TRUE(pool.Start(1).ok());
  Rng rng(17);
  std::atomic<int64_t> ran{0};
  for (int round = 0; round < 300; ++round) {
    const auto gap =
        round % 10 == 0
            ? 20 * kSpinBudget
            : std::chrono::microseconds(static_cast<int64_t>(
                  rng.Uniform(0.0, 2.0 * kSpinBudget.count())));
    std::this_thread::sleep_for(gap);
    pool.Open(2, [&ran](size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    pool.Await(1);
    ASSERT_TRUE(pool.Close().ok());
    ASSERT_EQ(ran.load(), 2 * (round + 1));
  }
  pool.Stop();
}

TEST(BatchPoolTest, OwnerParksPastTheSpinBudgetAndAWorkerWakesIt) {
  // Workers hold the items the owner needs for 20 spin budgets, so the
  // owner runs out of items and parks: in Await until the worker running
  // the awaited item bumps it, in Close until the last worker leaves. No
  // other bump comes, so a lost wake-up hangs the test.
  BatchPool pool;
  ASSERT_TRUE(pool.Start(2).ok());
  using Clock = std::chrono::steady_clock;
  int long_awaits = 0;
  int long_closes = 0;
  for (int round = 0; round < 20; ++round) {
    // Await(0): the workers hold items 0 and 1, and item 1 keeps its
    // worker inside the batch until Await(0) returns, so only item 0's
    // done bump can wake the owner. The owner runs item 2.
    std::atomic<int> started{0};
    std::atomic<bool> release{false};
    pool.Open(3, [&](size_t i) {
      if (i == 2) return;
      started.fetch_add(1, std::memory_order_relaxed);
      if (i == 0) {
        std::this_thread::sleep_for(20 * kSpinBudget);
        return;
      }
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    while (started.load(std::memory_order_relaxed) < 2) {
      std::this_thread::yield();
    }
    auto t0 = Clock::now();
    pool.Await(0);
    long_awaits += Clock::now() - t0 > kSpinBudget ? 1 : 0;
    release.store(true, std::memory_order_release);
    ASSERT_TRUE(pool.Close().ok());

    // Close: one worker holds item 0, the owner runs item 1 and then
    // waits for the worker to leave.
    started.store(0, std::memory_order_relaxed);
    pool.Open(2, [&](size_t i) {
      if (i != 0) return;
      started.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(20 * kSpinBudget);
    });
    while (started.load(std::memory_order_relaxed) < 1) {
      std::this_thread::yield();
    }
    t0 = Clock::now();
    ASSERT_TRUE(pool.Close().ok());
    long_closes += Clock::now() - t0 > kSpinBudget ? 1 : 0;
  }
  // Waits past the spin budget: the owner was parked when woken.
  EXPECT_GT(long_awaits, 0);
  EXPECT_GT(long_closes, 0);
  pool.Stop();
}

// -------------------------------------------------------------- batches

TEST(BatchPoolTest, BackToBackBatchesRunEveryItemOnce) {
  // Each item stamps its run count and owner round with plain writes that
  // the owner reads once Close returns and the next round rewrites: a
  // worker still inside a closed batch, or an item run twice or never,
  // fails the check or (under TSan) races on the stamp.
  constexpr int kRounds = 4000;
  constexpr size_t kMaxItems = 48;
  BatchPool pool;
  ASSERT_TRUE(pool.Start(3).ok());
  std::vector<int> runs(kMaxItems, 0);
  std::vector<int> owner(kMaxItems, -1);
  Rng rng(7);
  for (int round = 0; round < kRounds; ++round) {
    const size_t n = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kMaxItems)));
    const bool slow = rng.Bernoulli(0.25);
    pool.Open(n, [&runs, &owner, round, slow](size_t i) {
      if (slow) BusyFor(2);
      ++runs[i];
      owner[i] = round;
    });
    // Await a random prefix of the items; Close runs or waits out the rest.
    const size_t awaited =
        n == 0 ? 0
               : static_cast<size_t>(
                     rng.UniformInt(0, static_cast<int64_t>(n)));
    for (size_t i = 0; i < awaited; ++i) {
      pool.Await(i);
      ASSERT_EQ(owner[i], round) << "round " << round << " item " << i;
    }
    ASSERT_TRUE(pool.Close().ok());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(runs[i], 1) << "round " << round << " item " << i;
      ASSERT_EQ(owner[i], round) << "round " << round << " item " << i;
      runs[i] = 0;
    }
  }
  pool.Stop();
}

TEST(BatchPoolTest, FirstFailureLatchesAndLaterBatchesStillDrain) {
  BatchPool pool;
  ASSERT_TRUE(pool.Start(2).ok());
  std::atomic<int64_t> ran{0};
  auto work = [&ran](size_t) {
    BusyFor(5);
    ran.fetch_add(1, std::memory_order_relaxed);
  };
  pool.Open(6, work);
  ASSERT_TRUE(pool.Close().ok());
  // The fourth worker woken over the pool's life, the second of this
  // batch, fails; the others claim its share.
  pool.Open(6, work, /*fail_at=*/4);
  const Status failed = pool.Close();
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.ToString().find("injected worker abort"),
            std::string::npos);
  EXPECT_EQ(ran.load(), 12);
  // Later batches run every item, and Close keeps reporting the latch.
  for (int batch = 0; batch < 20; ++batch) {
    pool.Open(6, work, /*fail_at=*/4);
    for (size_t i = 0; i < 6; ++i) pool.Await(i);
    const Status still = pool.Close();
    ASSERT_FALSE(still.ok());
    EXPECT_EQ(still.ToString(), failed.ToString());
  }
  EXPECT_EQ(ran.load(), 12 + 20 * 6);
  pool.Stop();
}

// ---------------------------------------------------------- claim queue

TEST(ClaimQueueTest, WorkersAndDispatcherSolveEachGroupOnceInOrder) {
  // The refresh service's shape: a batch of groups and an owner walking
  // stale parts in oracle order — a part's group is numbered by its first
  // appearance, later parts may repeat earlier groups — and awaiting each
  // part's group before reading its result. Every group must run exactly
  // once, the walk must see every result (a plain write, published only
  // by the done flag), and with no workers the owner must solve each
  // group lazily, at its first part.
  for (int workers : {0, 1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    BatchPool pool;
    if (workers > 0) {
      ASSERT_TRUE(pool.Start(workers).ok());
    }
    Rng rng(100 + static_cast<uint64_t>(workers));
    std::vector<std::atomic<int>> runs(40);
    std::vector<int64_t> result(40);
    int64_t by_workers = 0;
    const std::thread::id owner = std::this_thread::get_id();
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
      pool.Open(groups, [&](size_t g) {
        BusyFor(5);
        result[g] = static_cast<int64_t>(g * g + 7);
        on_worker[g] = std::this_thread::get_id() != owner;
        runs[g].fetch_add(1, std::memory_order_relaxed);
      });
      std::vector<size_t> seen;
      for (size_t g : walk) {
        const bool first =
            std::find(seen.begin(), seen.end(), g) == seen.end();
        if (workers == 0 && first) {
          ASSERT_FALSE(pool.done(g)) << "solved before its first part";
        }
        pool.Await(g);
        ASSERT_TRUE(pool.done(g));
        ASSERT_EQ(result[g], static_cast<int64_t>(g * g + 7));
        if (workers == 0 && first && g + 1 < groups) {
          ASSERT_FALSE(pool.done(g + 1)) << "solved ahead of the walk";
        }
        seen.push_back(g);
      }
      ASSERT_EQ(seen, walk);
      ASSERT_TRUE(pool.Close().ok());
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
