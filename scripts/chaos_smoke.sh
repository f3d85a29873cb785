#!/usr/bin/env bash
# Chaos smoke for the runtime guardrails: boot the real daemon with
# tight limits and CERFIX_CHAOS=1 (the guard chaos seam: reserved tuple
# values inject worker panics and stalls), then prove at the process
# level that
#
#   - an over--max-body request answers the typed 413 and the daemon
#     stays serving;
#   - a job carrying the chaos panic value fails with the goroutine
#     stack journaled to its record, while the daemon keeps serving
#     and the next clean job completes;
#   - a job carrying the chaos stall value is cancelled by the
#     stuck-job watchdog within a few stall-timeouts (it stalls on
#     every attempt, so bounded retries end in a terminal failure with
#     the stall reason);
#   - after all of the above, /api/v1/status still answers and a sync
#     /fix still works.
#
# Environment knobs: PORT (default 18092), WORK (scratch dir, default
# mktemp -d).
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=${BIN:-$(mktemp -d)/cerfixd}
WORK=${WORK:-$(mktemp -d)}
PORT=${PORT:-18092}
BASE="http://127.0.0.1:$PORT"
DAEMON=""

go build -o "$BIN" ./cmd/cerfixd

CERFIX_CHAOS=1 "$BIN" -addr "127.0.0.1:$PORT" -demo \
  -jobs-dir "$WORK/jobs" \
  -max-body 4KiB -request-timeout 5s \
  -stall-timeout 500ms -job-timeout 30s &
DAEMON=$!
trap 'kill "$DAEMON" 2>/dev/null || true; wait "$DAEMON" 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
  if curl -sf "$BASE/api/v1/status" > /dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -sf "$BASE/api/v1/status" > /dev/null || { echo "FAIL: daemon did not come up" >&2; exit 1; }

tuple() { # $1 = zip value
  printf '{"FN":"Bob","LN":"Brady","AC":"020","phn":"079172485","type":"2","str":"501 Elm St.","city":"Edi","zip":"%s","item":"CD"}' "$1"
}

submit_job() { # $1 = tuple json; prints job id
  curl -s -X POST "$BASE/api/v1/jobs" -H 'Content-Type: application/json' \
    -d "{\"validated\":[\"phn\",\"type\",\"item\"],\"tuples\":[$1]}" \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'
}

wait_terminal() { # $1 = job id, $2 = max iterations (x200ms)
  for _ in $(seq 1 "$2"); do
    state=$(curl -sf "$BASE/api/v1/jobs/$1" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p' || true)
    case "$state" in done|failed|cancelled) echo "$state"; return 0 ;; esac
    sleep 0.2
  done
  echo "timeout"
}

# --- 1. oversized body → typed 413, daemon unharmed ---------------------
BODY=$(python3 -c 'print("{\"validated\":[\"zip\"],\"tuples\":[{\"zip\":\"" + "9"*8192 + "\"}]}")' 2>/dev/null \
  || awk 'BEGIN { s=""; for (i=0;i<8192;i++) s=s"9"; printf "{\"validated\":[\"zip\"],\"tuples\":[{\"zip\":\"%s\"}]}", s }')
STATUS=$(curl -s -o "$WORK/413.json" -w '%{http_code}' -X POST "$BASE/api/v1/fix" \
  -H 'Content-Type: application/json' -d "$BODY")
[ "$STATUS" = "413" ] || { echo "FAIL: oversized body answered $STATUS, want 413" >&2; cat "$WORK/413.json" >&2; exit 1; }
grep -q '"body_too_large"' "$WORK/413.json" || { echo "FAIL: 413 body lacks the typed code" >&2; exit 1; }
echo "chaos smoke: oversized body -> 413 body_too_large OK"

# --- 2. panicking job → failed with journaled stack, daemon serving -----
PANIC_JOB=$(submit_job "$(tuple __chaos_panic__)")
[ -n "$PANIC_JOB" ] || { echo "FAIL: panic-job submit returned no id" >&2; exit 1; }
STATE=$(wait_terminal "$PANIC_JOB" 100)
[ "$STATE" = "failed" ] || { echo "FAIL: panic job ended $STATE, want failed" >&2; exit 1; }
curl -sf "$BASE/api/v1/jobs/$PANIC_JOB" > "$WORK/panic.json"
grep -q '"panic_stack"' "$WORK/panic.json" || { echo "FAIL: panic job has no journaled stack" >&2; cat "$WORK/panic.json" >&2; exit 1; }
grep -q 'goroutine' "$WORK/panic.json" || { echo "FAIL: panic_stack is not a goroutine stack" >&2; exit 1; }
echo "chaos smoke: runner panic -> failed job with journaled stack OK"

# --- 3. stalled job → watchdog cancels within the stall timeout ---------
START=$(date +%s)
STALL_JOB=$(submit_job "$(tuple __chaos_stall__)")
[ -n "$STALL_JOB" ] || { echo "FAIL: stall-job submit returned no id" >&2; exit 1; }
# Stalls on every attempt (CERFIX_CHAOS arms an unlimited stall budget),
# so bounded retries (default 3 attempts x 500ms stall timeout) must end
# terminally — well under the 20s cap below.
STATE=$(wait_terminal "$STALL_JOB" 100)
ELAPSED=$(( $(date +%s) - START ))
[ "$STATE" = "failed" ] || { echo "FAIL: stalled job ended $STATE, want failed" >&2; exit 1; }
curl -sf "$BASE/api/v1/jobs/$STALL_JOB" | grep -q 'stalled' || { echo "FAIL: failure reason is not the stall" >&2; exit 1; }
[ "$ELAPSED" -lt 20 ] || { echo "FAIL: watchdog took ${ELAPSED}s to put the stalled job down" >&2; exit 1; }
echo "chaos smoke: stalled job -> watchdog-failed in ${ELAPSED}s OK"

# --- 4. daemon is still fully serving after all of it -------------------
CLEAN_JOB=$(submit_job "$(tuple 'EH7 4AH')")
STATE=$(wait_terminal "$CLEAN_JOB" 100)
[ "$STATE" = "done" ] || { echo "FAIL: clean job after chaos ended $STATE" >&2; exit 1; }
curl -sf -X POST "$BASE/api/v1/fix" -H 'Content-Type: application/json' \
  -d "{\"validated\":[\"zip\",\"phn\",\"type\",\"item\"],\"tuples\":[$(tuple 'EH7 4AH')]}" \
  | grep -q '"cells_rewritten":1' || { echo "FAIL: sync fix broken after chaos" >&2; exit 1; }
curl -sf "$BASE/api/v1/status" | grep -q '"stalls":' || { echo "FAIL: status lost its stall counter" >&2; exit 1; }
echo "chaos smoke OK: daemon survived 413, runner panic and watchdog-stalled job, and kept serving"

# --- 5. memory watermarks: a 1-byte soft watermark sheds submits --------
# A second daemon whose heap is always past -mem-soft: job submissions
# must shed with 429 memory_pressure + Retry-After while /status keeps
# answering and reports the pressure state under guardrails.memory.
# Each submission samples the heap itself, so the first one sheds.
kill "$DAEMON" 2>/dev/null || true; wait "$DAEMON" 2>/dev/null || true
"$BIN" -addr "127.0.0.1:$PORT" -demo -jobs-dir "$WORK/jobs2" -mem-soft 1B &
DAEMON=$!
for _ in $(seq 1 100); do
  if curl -sf "$BASE/api/v1/status" > /dev/null 2>&1; then break; fi
  sleep 0.1
done
STATUS=$(curl -s -o "$WORK/shed.json" -w '%{http_code}' -X POST "$BASE/api/v1/jobs" \
  -H 'Content-Type: application/json' \
  -d "{\"validated\":[\"phn\",\"type\",\"item\"],\"tuples\":[$(tuple 'EH7 4AH')]}")
[ "$STATUS" = "429" ] || { echo "FAIL: submit under memory pressure answered $STATUS, want 429" >&2; cat "$WORK/shed.json" >&2; exit 1; }
grep -q '"memory_pressure"' "$WORK/shed.json" || { echo "FAIL: shed lacks the memory_pressure code" >&2; exit 1; }
curl -sf "$BASE/api/v1/status" > "$WORK/memstatus.json"
grep -q '"state":"soft"\|"state":"hard"' "$WORK/memstatus.json" || { echo "FAIL: status does not report memory pressure" >&2; exit 1; }
echo "chaos smoke: 1-byte soft watermark -> 429 memory_pressure + status state OK"
