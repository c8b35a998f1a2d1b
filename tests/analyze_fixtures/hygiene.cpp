// Hygiene family, which runs on every analyzed file: a bare assert() and
// std::cout fire. static_assert, a member named assert and its member call,
// and assert( or std::cout inside a comment or a string stay silent.
namespace zdc {

void checks(int x) {
  assert(x > 0);
  std::cout << "decided\n";
}

static_assert(sizeof(int) >= 4, "ok");

struct Checker {
  void assert(bool) {}
};

void fine(Checker& c) {
  c.assert(true);
  const char* doc = "redirect std::cout before calling assert(";
  std::cerr << doc;
}

}  // namespace zdc
