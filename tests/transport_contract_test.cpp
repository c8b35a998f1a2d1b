// The Transport wake-up contract, checked on both implementations over an
// idle network: schedule() from another thread wakes the worker, a timer
// runs once its delay has passed without traffic to wake the worker, and
// shutdown() returns promptly. The UDP transport runs with a 400 ms
// retransmit interval, so a receive loop that sleeps out its 200 ms poll
// bound instead of waking on work fails every case.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/inproc_net.h"
#include "runtime/udp_net.h"
#include "test_sync.h"

namespace zdc::runtime {
namespace {

using Clock = std::chrono::steady_clock;
using Ms = std::chrono::duration<double, std::milli>;
using namespace std::chrono_literals;

constexpr std::uint32_t kN = 3;

template <typename Net>
std::unique_ptr<Net> make_net();

template <>
std::unique_ptr<InprocNetwork> make_net<InprocNetwork>() {
  InprocNetwork::Config cfg;
  cfg.n = kN;
  cfg.seed = 5;
  return std::make_unique<InprocNetwork>(cfg);
}

template <>
std::unique_ptr<UdpNetwork> make_net<UdpNetwork>() {
  UdpNetwork::Config cfg;
  cfg.n = kN;
  cfg.seed = 5;
  cfg.retransmit_interval_ms = 400.0;
  return std::make_unique<UdpNetwork>(cfg);
}

template <typename Net>
class TransportContract : public ::testing::Test {
 protected:
  TransportContract() : net_(make_net<Net>()) {
    for (ProcessId p = 0; p < kN; ++p) {
      net_->set_handler(p, [](const Delivery&) {});
    }
    net_->start();
  }

  std::unique_ptr<Net> net_;
};

struct TransportName {
  template <typename Net>
  static std::string GetName(int /*index*/) {
    return std::is_same_v<Net, UdpNetwork> ? "Udp" : "Inproc";
  }
};

using Transports = ::testing::Types<InprocNetwork, UdpNetwork>;
TYPED_TEST_SUITE(TransportContract, Transports, TransportName);

/// When a callback ran. Shared with the callback, so a late one after a
/// failed wait touches live memory.
struct Stamp {
  std::atomic<bool> ran{false};
  Clock::time_point at;  ///< written before `ran` is set
};

TYPED_TEST(TransportContract, ScheduleFromAnotherThreadRunsPromptly) {
  // Zero-delay callbacks handed in from the test thread one at a time, each
  // after the previous ran, so the worker is idle when it is asked.
  std::vector<double> lags;
  for (int i = 0; i < 15; ++i) {
    auto stamp = std::make_shared<Stamp>();
    const Clock::time_point asked = Clock::now();
    this->net_->schedule(1, 0.0, [stamp] {
      stamp->at = Clock::now();
      stamp->ran.store(true, std::memory_order_release);
    });
    ASSERT_TRUE(testing::poll_until(
        [&] { return stamp->ran.load(std::memory_order_acquire); }, 5000ms));
    lags.push_back(Ms(stamp->at - asked).count());
  }
  std::nth_element(lags.begin(), lags.begin() + 7, lags.end());
  EXPECT_LT(lags[7], 20.0) << "median schedule() -> callback lag, ms";
}

/// A chain of one-millisecond timers, each armed by the previous callback
/// on the worker.
struct Chain {
  Transport* net = nullptr;
  std::atomic<int> left{50};
  std::atomic<bool> done{false};
  Clock::time_point finished;  ///< written before `done` is set
};

void arm(const std::shared_ptr<Chain>& chain) {
  chain->net->schedule(1, 1.0, [chain] {
    if (--chain->left == 0) {
      chain->finished = Clock::now();
      chain->done.store(true, std::memory_order_release);
      return;
    }
    arm(chain);
  });
}

TYPED_TEST(TransportContract, TimerChainRunsWithoutTraffic) {
  auto chain = std::make_shared<Chain>();
  chain->net = this->net_.get();
  const Clock::time_point start = Clock::now();
  arm(chain);
  ASSERT_TRUE(testing::poll_until(
      [&] { return chain->done.load(std::memory_order_acquire); }, 3000ms))
      << chain->left.load() << " of 50 timers still pending after 3 s";
  // 50 ms of delays; a loop that waits for traffic or its poll bound takes
  // seconds.
  EXPECT_LT(Ms(chain->finished - start).count(), 500.0);
  this->net_->shutdown();
}

TYPED_TEST(TransportContract, ShutdownReturnsPromptly) {
  // Let every worker settle into its idle sleep first.
  std::this_thread::sleep_for(20ms);
  const Clock::time_point start = Clock::now();
  this->net_->shutdown();
  EXPECT_LT(Ms(Clock::now() - start).count(), 50.0);
}

}  // namespace
}  // namespace zdc::runtime
