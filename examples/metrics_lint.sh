#!/usr/bin/env bash
# Structural lint for a Prometheus text-exposition (format 0.0.4) scrape
# of fdm-serve's /metrics endpoint, as promised by docs/serve.md:
#
#   * every sample is preceded by a `# TYPE` for its family (families
#     are contiguous), and the type is counter/gauge/histogram;
#   * no series (name + label set) appears twice;
#   * every value is numeric;
#   * histogram `+Inf` buckets equal their `_count`.
#
# Usage: examples/metrics_lint.sh [scrape-file]    (stdin when omitted)
# Exits non-zero with one line per violation. The CI `serve` job runs
# this against a live scrape.
set -euo pipefail

awk '
  function fail(msg) { printf "metrics lint: line %d: %s\n", NR, msg; bad = 1 }
  /^# TYPE / {
    family = $3; kind = $4
    if (kind != "counter" && kind != "gauge" && kind != "histogram")
      fail("unknown TYPE " kind " for " family)
    if (family in typed)
      fail("family " family " TYPE-declared twice (families must be contiguous)")
    typed[family] = kind
    next
  }
  /^#/ { next }
  /^$/ { next }
  {
    series = $0
    sub(/ [^ ]+$/, "", series)            # strip the trailing value
    if (series in seen) fail("duplicate series " series)
    seen[series] = 1
    name = series
    sub(/\{.*/, "", name)
    family = name
    sub(/_(bucket|sum|count)$/, "", family)
    if (!(name in typed) && !(family in typed))
      fail("sample " name " has no preceding # TYPE")
    value = $NF
    if (value !~ /^[-+]?[0-9.][0-9.eE+-]*$/)
      fail("non-numeric value " value " on " series)
    # Histogram bookkeeping, keyed by family + non-le labels (an
    # unlabelled histogram keys by its bare family name).
    if (name ~ /_bucket$/ && series ~ /le="\+Inf"/) {
      key = series
      sub(/_bucket\{/, "{", key)
      sub(/,?le="\+Inf"/, "", key)
      sub(/\{\}$/, "", key)
      inf[key] = value
    }
    if (name ~ /_count$/ && typed[family] == "histogram") {
      key = series
      if (!sub(/_count\{/, "{", key)) sub(/_count$/, "", key)
      count[key] = value
    }
    samples++
  }
  END {
    if (samples == 0) { print "metrics lint: empty exposition"; bad = 1 }
    for (key in count) {
      if (!(key in inf)) {
        printf "metrics lint: %s: histogram without a +Inf bucket\n", key; bad = 1
      } else if (inf[key] + 0 != count[key] + 0) {
        printf "metrics lint: %s: +Inf bucket %s != _count %s\n", key, inf[key], count[key]
        bad = 1
      }
    }
    exit bad
  }
' "${1:-/dev/stdin}"
