// True negatives across every family: banned names confined to comments,
// strings and raw strings, or merely contained in longer identifiers; a
// consistent single-mutex class; every Status consumed; ordered iteration
// feeding an Encoder; a lookup on an unordered container.
namespace zdc {

struct Status {
  static Status ok();
  bool is_ok() const;
};

class Encoder {
 public:
  void put_u32(unsigned v);
};

class Store {
 public:
  // fsync( and std::mt19937 in a comment must not fire.
  Status put(int k, int v) {
    common::MutexLock lock(mu_);
    data_[k] = v;
    return Status::ok();
  }
  const char* banner() const {
    return R"(raw string: fsync( mt19937 system_clock)";
  }
  std::string describe() const { return "call fsync( later"; }
  void encode(Encoder& enc) const {
    common::MutexLock lock(mu_);
    for (const auto& kv : data_) {
      enc.put_u32(static_cast<unsigned>(kv.second));
    }
  }

 private:
  mutable common::Mutex mu_;
  std::map<int, int> data_;
};

void use(Store& store) {
  const Status s = store.put(1, 2);
  if (!s.is_ok()) return;
}

// rand(), time( and std::cout in a comment are not uses.
const char* kHelp = "seed defaults to time(nullptr); pipe std::cout to a file";
const char* kRaw = R"(assert(x) and steady_clock belong to the caller)";

struct Sample {
  double timestamp = 0;
  double randomness = 0;
};

bool find_sample(const std::unordered_map<int, Sample>& idx) {
  return idx.find(3) != idx.end();
}

}  // namespace zdc
