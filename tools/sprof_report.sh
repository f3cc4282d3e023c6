#!/bin/sh
# Flat per-function profile from a sample file written by tools/sprof.c.
#
#   sh tools/sprof_report.sh PROFILE
#
# Each sampled PC is mapped through the copy of /proc/self/maps in PROFILE
# to an object file and a file offset, then to the object's virtual address
# (its LOAD program headers, read with readelf) and to the function whose
# nm symbol is the nearest one at or below that address. Prints the 40
# functions with the most samples, then the 40 modules likewise. An
# OCaml symbol such as camlRepro_engine__Heap.sift_down_412 is shown as
# Repro_engine.Heap.sift_down; C functions keep their names, and their
# module is the object file, with the OCaml runtime and C stubs linked
# into the executable shown as "(C in executable)".
set -eu

if [ $# -ne 1 ]; then
  echo "usage: sh tools/sprof_report.sh PROFILE" >&2
  exit 2
fi
prof=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# Every object file with an executable mapping: its LOAD segments
# ("seg OBJ OFFSET VADDR FILESZ") and its function symbols in address order
# ("sym OBJ ADDR NAME"); the dynamic table stands in for a stripped one.
awk '/^maps$/ { m = 1; next } /^end maps$/ { m = 0 }
     m && $2 ~ /x/ && $6 ~ /^\// { print $6 }' "$prof" | sort -u > "$tmp/objs"
i=0
while read -r obj; do
  i=$((i + 1))
  echo "obj $i $obj"
  readelf -lW "$obj" 2>/dev/null | awk -v o="$i" '$1 == "LOAD" { print "seg", o, $2, $3, $5 }'
  nm -n --defined-only "$obj" 2>/dev/null | awk -v o="$i" 'NF == 3 && $2 ~ /^[tTwW]$/ { print "sym", o, $1, $3 }' > "$tmp/sym"
  if [ ! -s "$tmp/sym" ]; then
    nm -D -n --defined-only "$obj" 2>/dev/null | awk -v o="$i" 'NF == 3 && $2 ~ /^[tTwWiI]$/ { print "sym", o, $1, $3 }' > "$tmp/sym"
  fi
  cat "$tmp/sym"
done < "$tmp/objs" > "$tmp/objinfo"

awk -v top=40 '
  function hex(s,   i, v) {
    v = 0
    s = tolower(s)
    sub(/^0x/, "", s)
    for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return v
  }
  function basename(p) { sub(/.*\//, "", p); return p }
  # camlA__B.f_123 -> A.B.f; anything else is left alone.
  function pretty(name,   m) {
    if (name !~ /^caml[A-Z]/) return name
    m = substr(name, 5)
    sub(/_[0-9]+$/, "", m)
    gsub(/__/, ".", m)
    return m
  }
  function module_of(name, o,   m) {
    if (name ~ /^caml[A-Z]/) {
      m = pretty(name)
      sub(/\.[^.]*$/, "", m)
      return m
    }
    return objpath[o] == exe ? "(C in executable)" : basename(objpath[o])
  }
  # Largest symbol address <= a in object o, by binary search.
  function lookup(o, a,   lo, hi, mid) {
    lo = 1; hi = nsym[o]
    if (hi == 0 || a < symaddr[o, 1]) return ""
    while (lo < hi) {
      mid = int((lo + hi + 1) / 2)
      if (symaddr[o, mid] <= a) lo = mid; else hi = mid - 1
    }
    return symname[o, lo]
  }
  FILENAME == ARGV[1] {
    if ($1 == "obj") { objid[$3] = $2; objpath[$2] = $3 }
    else if ($1 == "seg") { k = ++nseg[$2]; segoff[$2, k] = hex($3); segva[$2, k] = hex($4); segsz[$2, k] = hex($5) }
    else if ($1 == "sym") { k = ++nsym[$2]; symaddr[$2, k] = hex($3); symname[$2, k] = $4 }
    next
  }
  $1 == "hz" { hz = $2 }
  $1 == "samples" { samples = $2 }
  $1 == "dropped" { dropped = $2 }
  # The program itself is the first file mapped.
  /^maps$/ { inmaps = 1; next }
  inmaps && exe == "" && $6 ~ /^\// { exe = $6 }
  /^end maps$/ { inmaps = 0; next }
  /^pcs$/ { inpcs = 1; next }
  inmaps && $2 ~ /x/ {
    split($1, r, "-")
    nmap++; mstart[nmap] = hex(r[1]); mend[nmap] = hex(r[2]); moff[nmap] = hex($3)
    mobj[nmap] = ($6 in objid) ? objid[$6] : 0
    mname[nmap] = NF >= 6 ? $6 : "[anonymous]"
    next
  }
  inpcs {
    pc = hex($1); c = $2 + 0; total += c
    fn = ""; mod = "(unmapped)"
    for (i = 1; i <= nmap; i++) {
      if (pc >= mstart[i] && pc < mend[i]) {
        o = mobj[i]
        mod = mname[i]
        if (o > 0) {
          fo = pc - mstart[i] + moff[i]
          va = -1
          for (k = 1; k <= nseg[o]; k++)
            if (fo >= segoff[o, k] && fo < segoff[o, k] + segsz[o, k]) va = fo - segoff[o, k] + segva[o, k]
          if (va >= 0) fn = lookup(o, va)
          mod = fn == "" ? basename(objpath[o]) : module_of(fn, o)
        }
        break
      }
    }
    if (fn == "") fn = "?? in " mod
    byfn[pretty(fn)] += c
    bymod[mod] += c
  }
  END {
    printf "sprof: %d samples at %d Hz (%d dropped); main thread only\n\n", samples, hz, dropped
    if (total == 0) exit
    printf "%7s %8s  %s\n", "self%", "samples", "function"
    nf = 0
    for (f in byfn) { nf++; fk[nf] = f; fv[nf] = byfn[f] }
    # selection of the top entries, largest first; ties by name
    for (i = 1; i <= nf && i <= top; i++) {
      b = i
      for (j = i + 1; j <= nf; j++)
        if (fv[j] > fv[b] || (fv[j] == fv[b] && fk[j] < fk[b])) b = j
      t = fk[i]; fk[i] = fk[b]; fk[b] = t; t = fv[i]; fv[i] = fv[b]; fv[b] = t
      printf "%6.2f%% %8d  %s\n", 100 * fv[i] / total, fv[i], fk[i]
    }
    printf "\n%7s %8s  %s\n", "self%", "samples", "module"
    nm_ = 0
    for (m in bymod) { nm_++; mk[nm_] = m; mv[nm_] = bymod[m] }
    for (i = 1; i <= nm_ && i <= top; i++) {
      b = i
      for (j = i + 1; j <= nm_; j++)
        if (mv[j] > mv[b] || (mv[j] == mv[b] && mk[j] < mk[b])) b = j
      t = mk[i]; mk[i] = mk[b]; mk[b] = t; t = mv[i]; mv[i] = mv[b]; mv[b] = t
      printf "%6.2f%% %8d  %s\n", 100 * mv[i] / total, mv[i], mk[i]
    }
  }
' "$tmp/objinfo" "$prof"
