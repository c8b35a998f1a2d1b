// True positives: fsync under a guard (write_direct) and via a callee
// (write_both reaches fsync through flush); ppoll under a guard (wait_locked).
namespace zdc {

class Log {
 public:
  void flush() { fsync(fd_); }
  void write_direct() {
    common::MutexLock lock(mu_);
    fsync(fd_);
  }
  void write_both() {
    common::MutexLock lock(mu_);
    flush();
  }

 private:
  common::Mutex mu_;
  int fd_ = -1;
};

class Loop {
 public:
  void wait_locked() {
    common::MutexLock lock(mu_);
    ppoll(&pfd_, 1, &timeout_, nullptr);
  }

 private:
  common::Mutex mu_;
  pollfd pfd_{};
  timespec timeout_{};
};

}  // namespace zdc
