#!/usr/bin/env bash
# Pins what a BENCH_*.json validator rejects. The valid artifact must pass
# `BIN --validate`; every broken copy of it must be refused: a truncated
# document, a row missing a key, a wrong schema tag, a string where a number
# belongs and trailing garbage, plus the cases only one validator knows
# (`service`: a read-index-on row paying a round per read, a missing model;
# `paper`: a claim that does not hold).
#
#   tests/bench_validate_test.sh BIN ARTIFACT [service|paper]
set -u
BIN=$1
ARTIFACT=$2
KIND=${3:-}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
status=0

if ! "$BIN" --validate "$ARTIFACT" > /dev/null; then
  echo "FAIL: $ARTIFACT itself does not validate"
  exit 1
fi

# reject NAME: the validator must refuse $DIR/NAME.json.
reject() {
  if cmp -s "$ARTIFACT" "$DIR/$1.json"; then
    echo "FAIL: $1: the broken copy equals the artifact"
    status=1
  elif "$BIN" --validate "$DIR/$1.json" > /dev/null 2>&1; then
    echo "FAIL: $1: accepted"
    status=1
  else
    echo "ok: $1 rejected"
  fi
}

# broken NAME SED-SCRIPT: a copy edited by one sed -E script.
broken() {
  sed -E "$2" "$ARTIFACT" > "$DIR/$1.json"
  reject "$1"
}

head -c 300 "$ARTIFACT" > "$DIR/truncated.json"
reject truncated
broken missing-row-key '0,/, "[a-z_]+": [^,{}]+\}/s//}/'
broken wrong-schema 's/"schema": "[^"]*"/"schema": "zdc-bench-bogus-v1"/'
broken string-for-number '0,/"seed": ([0-9]+)/s//"seed": "\1"/'
{ cat "$ARTIFACT"; echo garbage; } > "$DIR/trailing-garbage.json"
reject trailing-garbage
case "$KIND" in
  service)
    broken on-row-pays-rounds \
      '/read-index-on/s/("reads": ([0-9]+), .*"consensus_read_rounds": )[0-9]+/\1\2/'
    broken missing-model '/"model": /d'
    ;;
  paper)
    broken claim-fails '0,/"holds": true/s//"holds": false/'
    ;;
esac
exit $status
