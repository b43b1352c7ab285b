#!/usr/bin/env bash
# The pre-submission judge (ROADMAP "How a PR lands"): alternating
# parent/change pairs of the frozen end-to-end benchmark, so host drift
# cancels, judged by `benchmark/run.sh compare` unchanged.
#
#   scripts/judge.sh BASE=<rev> [WORKLOADS="door_rw loop_tcp"] [PAIRS=10]
#
# BASE is checked out as a `git worktree` (or, if it names a directory, that
# checkout is used as is). Pair n runs seed n on both sides; the side that
# goes first flips every pair. Prints every pair's four metrics, its steal
# share and its failed/attempted operations (marked INVALID when the run
# log says its paced phase was voided by generator lateness), then compare's
# table as markdown. Exits non-zero on any "worse" row; an "unresolved" row
# (spread wider than the bound) is reported, not failed.
set -euo pipefail
for kv in "$@"; do export "$kv"; done
: "${BASE:?usage: scripts/judge.sh BASE=<rev|checkout> [WORKLOADS=...] [PAIRS=10]}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
WORKLOADS="${WORKLOADS:-keycount_mem keycount_tcp loop_tcp door_rw crash_replay}"
PAIRS="${PAIRS:-10}"
out="$(mktemp -d)"
if [ -d "$BASE" ]; then
	parent="$(cd "$BASE" && pwd)"
else
	parent="$out/parent"
	git -C "$root" worktree add --detach "$parent" "$BASE" >/dev/null
	trap 'git -C "$root" worktree remove --force "$parent"' EXIT
fi

# Hygiene first: a judgement made on a busy host is not one.
awk -v host="$(hostname)" -v nproc="$(nproc)" -v go="$(go env GOVERSION)" '/^cpu /{t=0; for(i=2;i<=NF;i++)t+=$i
	printf "host %s, nproc %s, %s, steal_share since boot %.4f\n", host, nproc, go, $9/t}' /proc/stat
echo "parent $(git -C "$parent" rev-parse --short HEAD) in $parent, change $(git -C "$root" rev-parse --short HEAD)+working tree in $root, results in $out"

# Build both sides before anything is timed (compare with no files builds,
# prints its usage and exits 2).
for dir in "$parent" "$root"; do (cd "$dir" && bash benchmark/run.sh compare >/dev/null 2>&1) || true; done

val() { grep -o "\"$2\":{\"value\":[^,]*" <<<"$1" | cut -d: -f3; }

# run SIDE DIR WORKLOAD SEED: one run; its result line (with the in-run
# distributions folded in, as a set file carries them) joins SIDE's list.
run() {
	local log="$out/$1-$3-seed$4.txt" line dists
	(cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$4") >"$log" ||
		{ echo "judge: $1 $3 seed $4 failed, see $log" >&2; exit 1; }
	[ -s "$out/$1.hygiene" ] || sed -n 's/^# [^ ]* trace=[^ ]* //p' "$log" >"$out/$1.hygiene"
	line="$(tail -n 1 "$log")"
	dists="$(sed -n 's/^dists: //p' "$log")"
	echo "${line%?},\"dists\":${dists:-null}}" >>"$out/$1.$3.runs"
	printf '| %s | %s | %s | %s | %s | %s | %s | %s | %s/%s%s |\n' "$3" "$4" "$1" "$(val "$line" latency_ms_p50)" \
		"$(val "$line" throughput_rps)" "$(val "$line" peak_rss_mb)" "$(val "$line" setup_s)" \
		"$(sed -n 's/.*"steal_share":\([0-9.e-]*\).*/\1/p' "$log")" \
		"$(awk '$1=="ops_failed"{print $2}' "$log")" "$(awk '$1=="ops_attempted"{print $2}' "$log")" \
		"$(grep -q '^note: paced phase INVALID' "$log" && echo ' INVALID' || true)"
}

echo "| workload | seed | side | latency_ms_p50 | throughput_rps | peak_rss_mb | setup_s | steal_share | failed/attempted |"
echo "|---|---|---|---|---|---|---|---|---|"
for w in $WORKLOADS; do
	for n in $(seq 1 "$PAIRS"); do
		if ((n % 2)); then run parent "$parent" "$w" "$n"; run change "$root" "$w" "$n"
		else run change "$root" "$w" "$n"; run parent "$parent" "$w" "$n"; fi
	done
done

# One set file per side, in the shape `run.sh --repeat` writes.
for side in parent change; do
	{
		printf '{"hygiene":%s,"traced":false,"claim":null,"runs":{' "$(cat "$out/$side.hygiene")"
		sep=""
		for w in $WORKLOADS; do printf '%s"%s":[%s]' "$sep" "$w" "$(paste -sd, "$out/$side.$w.runs")"; sep=","; done
		printf '}}\n'
	} >"$out/$side.json"
done

table="$(cd "$root" && bash benchmark/run.sh compare "$out/parent.json" "$out/change.json")" || true
echo
echo "A = parent, B = change; B/A has A as the base."
echo "| workload | metric | A median | B median | unit | B/A | spreadA | spreadB | bound | verdict |"
echo "|---|---|---|---|---|---|---|---|---|---|"
awk 'NF==10 && $1!="workload" {gsub(/ +/," | "); print "| " $0 " |"}' <<<"$table"
grep -E '^(A:|B:|[0-9]+ rows)' <<<"$table"
! grep -Eq ' worse$' <<<"$table"
