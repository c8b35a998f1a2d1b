// Suppression grammar. A justified allow, on the line above or the same
// line, suppresses the finding; a reasonless marker reports
// allow-needs-reason AND leaves the finding live; an unknown rule name
// reports unknown-allow; a marker for another rule suppresses nothing.
namespace zdc {

struct Status {
  static Status ok();
  bool is_ok() const;
};

Status make();

void suppressed() {
  // zdc-analyze: allow(discarded-status): fixture exercises the marker
  make();
}

void live() {
  make();
}

void reasonless() {
  // zdc-analyze: allow(discarded-status)
  make();
}

void unknown_rule() {
  // zdc-analyze: allow(no-such-rule): the rule name is checked
  make();
}

void wrong_rule() {
  // zdc-analyze: allow(recursive-lock): wrong family, suppresses nothing
  make();
}

void same_line() {
  make();  // zdc-analyze: allow(discarded-status): same-line form
}

}  // namespace zdc
