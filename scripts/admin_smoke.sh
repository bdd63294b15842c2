#!/usr/bin/env bash
# Live admin-plane smoke: starts `missl_serve --listen` on ephemeral ports,
# pushes one query through the TSV plane, then checks every admin endpoint
# against the real HTTP socket (docs/OBSERVABILITY.md):
#   /metrics  — Prometheus text with "# TYPE" lines and serve_* families
#   /healthz  — 200 "ok" while serving
#   /statusz  — machine-readable JSON
#   /tracez   — a Chrome trace from the always-on span rings holding the
#               query's serve.batch and infer.run spans
# plus the SIGUSR1 flight-recorder dump and a clean SIGTERM drain. Run by
# the CI release job and scripts/check.sh; exits non-zero on the first
# malformed response.
#
# Usage: scripts/admin_smoke.sh [build_dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SERVE="$PWD/$BUILD/examples/missl_serve"
[[ -x "$SERVE" ]] || { echo "admin_smoke: missing $SERVE (build first)"; exit 1; }

# The usage text must exist (exit 0) and document the admin plane: the admin
# HTTP port, the port file handshake this script relies on, the SIGUSR1
# flight-recorder dump, and the precision selector.
echo "admin_smoke: --help documents the admin plane"
help_out="$("$SERVE" --help)"
for needle in "--admin" "--port-file" "--precision" "SIGUSR1" "/metrics"; do
  grep -q -- "$needle" <<< "$help_out" \
    || { echo "admin_smoke: --help output missing '$needle'"; exit 1; }
done

work="$(mktemp -d)"
pid=""
cleanup() {
  [[ -n "$pid" ]] && kill "$pid" 2>/dev/null || true
  [[ -n "$pid" ]] && wait "$pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

fetch() {  # fetch <url> -> body on stdout; fails on non-2xx
  if command -v curl >/dev/null 2>&1; then
    curl -fsS --max-time 10 "$1"
  else
    python3 -c 'import sys,urllib.request
sys.stdout.write(urllib.request.urlopen(sys.argv[1], timeout=10).read().decode())' "$1"
  fi
}

http_code() {  # http_code <url> -> status code on stdout, success regardless
  python3 -c 'import sys,urllib.request,urllib.error
try:
  print(urllib.request.urlopen(sys.argv[1], timeout=10).status)
except urllib.error.HTTPError as e:
  print(e.code)' "$1"
}

# Server cwd is the scratch dir so the SIGUSR1 dump lands there. The int8
# tier is selected so /statusz exposes the quantized catalog stats this
# script asserts on below.
(cd "$work" && exec "$SERVE" --smoke --listen 0 --port-file ports \
    --precision int8) \
  > "$work/serve.log" 2>&1 &
pid=$!

for _ in $(seq 1 100); do
  [[ -s "$work/ports" ]] && break
  kill -0 "$pid" 2>/dev/null || { cat "$work/serve.log"; echo "admin_smoke: server died"; exit 1; }
  sleep 0.1
done
[[ -s "$work/ports" ]] || { echo "admin_smoke: no port file"; exit 1; }
port="$(sed -n 's/^port=//p' "$work/ports")"
admin="$(sed -n 's/^admin_port=//p' "$work/ports")"
[[ -n "$port" && -n "$admin" ]] || { echo "admin_smoke: bad port file"; cat "$work/ports"; exit 1; }
base="http://127.0.0.1:$admin"
echo "admin_smoke: query port $port, admin port $admin"

# One query through the TSV plane so the serve.* stage instruments exist.
python3 - "$port" <<'EOF'
import socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10)
s.sendall(b"1\t5\t1:0,2:1,3:2\n")
buf = b""
while b"\n" not in buf:
    chunk = s.recv(4096)
    if not chunk:
        sys.exit("query connection closed without an answer")
    buf += chunk
line = buf.split(b"\n", 1)[0].decode()
assert '"id":1' in line and '"error"' not in line, line
s.close()
EOF

echo "admin_smoke: /healthz"
[[ "$(fetch "$base/healthz")" == "ok" ]] || { echo "admin_smoke: /healthz != ok"; exit 1; }

echo "admin_smoke: /metrics"
metrics="$(fetch "$base/metrics")"
grep -q '^# TYPE ' <<< "$metrics" || { echo "admin_smoke: /metrics has no # TYPE lines"; exit 1; }
grep -q '^serve_stage_' <<< "$metrics" || { echo "admin_smoke: /metrics missing serve_stage_* families"; exit 1; }
grep -q '_bucket{le="+Inf"}' <<< "$metrics" || { echo "admin_smoke: /metrics missing +Inf buckets"; exit 1; }

echo "admin_smoke: /statusz"
# Valid JSON, and it must report the precision the server was launched with
# (and no executor selector: the compiled plan is the only scoring path)
# plus the int8 catalog stats (docs/INFERENCE.md): quantization enabled,
# sane per-row scales, and the ~4x catalog memory saving. The span rings
# have no on/off switch, so their block carries no "enabled" field.
fetch "$base/statusz" | python3 -c '
import json, sys
s = json.load(sys.stdin)
sc = s["serve_config"]
assert "executor" not in sc, sc
assert sc["precision"] == "int8", sc
q = s["quant"]
assert q["enabled"] is True, q
assert 0 < q["min_scale"] <= q["max_scale"], q
assert q["int8_bytes"] < q["fp32_bytes"], q
fr = s["flight_recorder"]
assert "enabled" not in fr, fr
assert fr["ring_capacity"] > 0 and fr["recorded"] > 0, fr
'

echo "admin_smoke: /tracez"
# The one query above was scored alone, so its batch span says size 1.
fetch "$base/tracez" | python3 -c '
import json, sys
t = json.load(sys.stdin)
ev = t["traceEvents"]
batches = [e for e in ev if e["name"] == "serve.batch"]
assert any(e["args"]["size"] == 1 for e in batches), batches
assert any(e["name"] == "infer.run" for e in ev), "no infer.run span"
'

echo "admin_smoke: 404 on unknown path"
[[ "$(http_code "$base/nope")" == "404" ]] || { echo "admin_smoke: expected 404"; exit 1; }

echo "admin_smoke: SIGUSR1 flight dump"
kill -USR1 "$pid"
dump=""
for _ in $(seq 1 50); do
  dump="$(ls "$work"/missl_flight_*.json 2>/dev/null | head -1 || true)"
  [[ -n "$dump" ]] && break
  sleep 0.1
done
[[ -n "$dump" ]] || { echo "admin_smoke: no SIGUSR1 dump appeared"; exit 1; }
python3 -m json.tool "$dump" > /dev/null

echo "admin_smoke: graceful SIGTERM drain"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
[[ "$rc" == "0" ]] || { echo "admin_smoke: server exit code $rc"; exit 1; }

echo "admin_smoke: OK"
