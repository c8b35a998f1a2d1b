// Determinism family: wall clocks, C time calls and raw randomness. In a
// deterministic file direct spellings fire (even on an alias declaration
// line) and so do alias *uses*; a use on the alias's own declaration line is
// exempt (the chained `using Ticker = Clock;`).
namespace zdc {

using Clock = std::chrono::steady_clock;
using Ticker = Clock;
typedef std::mt19937 LegacyRng;

class Sampler {
 public:
  long stamp() { return Clock::now().time_since_epoch().count(); }
  long stamp_twice() {
    // Two banned uses on one line dedupe to a single finding.
    return Ticker::now().count() + Ticker::now().count();
  }
  unsigned draw() {
    LegacyRng rng(seed_);
    return static_cast<unsigned>(rng());
  }
  unsigned draw_direct() {
    std::mt19937 rng(seed_);
    return static_cast<unsigned>(rng());
  }

 private:
  unsigned seed_ = 42;
};

// C calls fire in free-call position only: the Msg::time() declaration, the
// m.time() member call and the `arrival_time` identifier stay silent.
struct Msg {
  double arrival = 0;
  double time() const { return arrival; }
};

long wall_time() { return ::time(nullptr); }
long cpu_time() { return clock(); }
long epoch() { return std::chrono::system_clock::now().time_since_epoch(); }
int c_rand() { return rand(); }
unsigned device() {
  std::random_device rd;
  return rd();
}
double near_misses(const Msg& m) {
  double arrival_time(0);
  arrival_time += m.time();
  return arrival_time;
}

}  // namespace zdc
