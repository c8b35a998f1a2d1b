// Unordered-container flow. In a deterministic file every walk over an
// unordered container fires unordered-iter: a range-for over a type spelled
// directly (walk_direct), through an alias (walk_alias) or as a temporary
// (walk_temporary), and a begin() walk (first_direct, first_alias). Feeding
// an Encoder or a fingerprint from inside the loop fires
// unordered-encode-flow in every file (encode_unordered,
// fingerprint_unordered). An ordered map feeding the same Encoder
// (encode_ordered) and a lookup (lookup) stay silent everywhere.
namespace zdc {

using Table = std::unordered_map<int, int>;

class Encoder {
 public:
  void put_u32(unsigned v);
};

void walk_alias(Table& t) {
  long n = 0;
  for (auto& kv : t) n += kv.second;
}

void walk_direct(std::unordered_map<int, int>& m) {
  long n = 0;
  for (auto& kv : m) n += kv.second;
}

void encode_unordered(std::unordered_map<int, int>& m, Encoder& enc) {
  for (auto& kv : m) {
    enc.put_u32(static_cast<unsigned>(kv.second));
  }
}

void encode_ordered(std::map<int, int>& m, Encoder& enc) {
  for (auto& kv : m) {
    enc.put_u32(static_cast<unsigned>(kv.second));
  }
}

void update_fingerprint(int v);

void fingerprint_unordered(std::unordered_set<int>& s) {
  for (int v : s) update_fingerprint(v);
}

void count_unordered(std::unordered_set<int>& s) {
  long n = 0;
  for (int v : s) n += v;
}

int first_direct(std::unordered_set<int>& s) { return *s.begin(); }
int first_alias(Table& t) { return t.begin()->first; }
bool lookup(std::unordered_map<int, int>& m) { return m.count(7) != 0; }

long walk_temporary() {
  long n = 0;
  for (int v : std::unordered_set<int>{1, 2}) n += v;
  return n;
}

}  // namespace zdc
