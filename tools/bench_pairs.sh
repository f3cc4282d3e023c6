#!/bin/sh
# Interleaved before/after pairs of one bench/e2e workload.
#
#   sh tools/bench_pairs.sh A B WORKLOAD [N] [SEED] [SECONDS] [METRIC]
#
# A and B are two builds of bench_e2e.exe, e.g. a parent checkout's and this
# tree's _build/default/bench/e2e/bench_e2e.exe. Each of the N pairs
# (default 10) runs both on WORKLOAD at SEED (default 42) with a SECONDS
# window (default 4) and reads METRIC, one of the end-to-end metrics on the
# last output line (default host_ns_per_req; also setup_s, peak_rss_mb),
# with its unit. The side that runs first alternates from pair to pair,
# because a shared host drifts too much for back-to-back blocks. The
# summary gives each side's quartiles (the exclusive method of Python's
# statistics.quantiles, which bench/e2e/README.md uses), B's median change
# against A's, A's interquartile range, and the pairs B won: lower wins,
# ties count for neither side. Nanosecond values print as whole numbers,
# others with four significant digits.
set -eu

if [ $# -lt 3 ]; then
  echo "usage: sh tools/bench_pairs.sh A B WORKLOAD [N=10] [SEED=42] [SECONDS=4] [METRIC=host_ns_per_req]" >&2
  exit 2
fi
a=$1 b=$2 workload=$3 n=${4:-10} seed=${5:-42} secs=${6:-4} metric=${7:-host_ns_per_req}
if [ "$n" -lt 2 ]; then
  echo "bench_pairs: need at least 2 pairs for quartiles" >&2
  exit 2
fi

# Prints "VALUE UNIT" of METRIC, or nothing if the run did not report it.
measure() {
  "$1" --workload "$workload" --seed "$seed" --seconds "$secs" --trace 0 | tail -n 1 |
    sed -n "s/.*\"$metric\": {\"value\": \([^,}]*\), \"unit\": \"\([^\"]*\)\".*/\1 \2/p"
}

pairs=""
unit=""
i=1
while [ "$i" -le "$n" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    x=$(measure "$a")
    y=$(measure "$b")
  else
    y=$(measure "$b")
    x=$(measure "$a")
  fi
  if [ -z "$x" ] || [ -z "$y" ]; then
    echo "bench_pairs: pair $i: a run printed no $metric" >&2
    exit 1
  fi
  unit=${x#* }
  x=${x% *} y=${y% *}
  echo "pair $i: A $x $unit  B $y $unit"
  pairs="$pairs$x $y
"
  i=$((i + 1))
done

if [ "$unit" = ns ]; then fmt=%.0f; else fmt=%.4g; fi
printf '%s' "$pairs" | awk -v unit="$unit" -v fmt="$fmt" '
  function isort(v, k,   i, j, t) {
    for (i = 2; i <= k; i++) {
      t = v[i]
      for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
      v[j + 1] = t
    }
  }
  function quartile(v, k, q,   m, j, d) {
    m = k + 1
    j = int(q * m / 4)
    if (j < 1) j = 1
    if (j > k - 1) j = k - 1
    d = q * m - j * 4
    return (v[j] * (4 - d) + v[j + 1] * d) / 4
  }
  { a[NR] = $1; b[NR] = $2; if ($2 + 0 < $1 + 0) won++ }
  END {
    isort(a, NR); isort(b, NR)
    ma = quartile(a, NR, 2); mb = quartile(b, NR, 2)
    iqr = quartile(a, NR, 3) - quartile(a, NR, 1)
    qs = fmt " / " fmt " / " fmt " " unit "\n"
    printf "A q1 / median / q3: " qs, quartile(a, NR, 1), ma, quartile(a, NR, 3)
    printf "B q1 / median / q3: " qs, quartile(b, NR, 1), mb, quartile(b, NR, 3)
    printf "median change: %+.1f%% (%+" substr(fmt, 2) " " unit "), A interquartile range " fmt " " unit "\n", 100 * (mb - ma) / ma, mb - ma, iqr
    printf "B won %d/%d pairs\n", won, NR
  }'
