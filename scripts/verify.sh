#!/usr/bin/env bash
# Full offline verification gate for the vermem workspace.
#
# Everything runs with --offline: the workspace has zero registry
# dependencies (see the hermeticity check below), so a network-less
# container must be able to build, test, lint, and format-check from a
# cold checkout.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> hermeticity: no registry dependencies in any Cargo.toml"
# Dependency lines are either `name = { path = ... }` / `name.workspace =
# true` (allowed) or registry forms like `name = "1.0"` / `name = {
# version = ... }` (forbidden). Flag any dependency entry that names a
# version, which only registry (or git) dependencies do.
bad=$(grep -rn --include=Cargo.toml -E '^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=[[:space:]]*("|.*version[[:space:]]*=)' \
    Cargo.toml crates/*/Cargo.toml \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*(version|edition|license|repository|rust-version|name|description|debug|resolver|harness|path)[[:space:]]*=' \
    || true)
if [[ -n "$bad" ]]; then
    echo "registry-style dependency entries found:" >&2
    echo "$bad" >&2
    exit 1
fi
# Belt and braces: the six crates this workspace replaced must never be
# reintroduced as dependency keys.
for dep in rand proptest criterion crossbeam serde bytes; do
    if grep -rn --include=Cargo.toml -E "^[[:space:]]*${dep}[[:space:]]*(=|\.)" \
        Cargo.toml crates/*/Cargo.toml; then
        echo "forbidden dependency '${dep}' reintroduced" >&2
        exit 1
    fi
done
echo "    ok"

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --offline (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace > /dev/null

echo "==> bench smoke (VERMEM_BENCH_FAST=1): thread-ladder bench runs"
VERMEM_BENCH_FAST=1 cargo bench -q --offline -p vermem-bench --bench par_verify \
    > /dev/null

echo "==> kernel substrate: no private memo plumbing in crates/consistency/src"
# The PR-5 contract: the operational searches (VSC/TSO/PSO) run on the
# shared exact-search kernel (crates/coherence/src/kernel.rs), which owns
# the memo table, budget, and cancellation. A `visited: HashSet` (or any
# tuple-keyed HashSet) reappearing in the consistency crate means a solver
# grew its own memoization again.
if grep -rn 'visited: HashSet\|HashSet<(' crates/consistency/src; then
    echo "private memo plumbing found in crates/consistency/src (use the kernel)" >&2
    exit 1
fi
echo "    ok"

echo "==> axiom framework: transition systems only in the compilers + legacy ablation"
# The PR-10 contract: memory models are declared as ModelSpec data and
# lowered by the two compilers — axiom/operational.rs (buffer machines on
# the shared kernel) and axiom/graph.rs (acyclicity models). The only
# other TransitionSystem impls allowed in the consistency crate are the
# verbatim pre-refactor machines preserved in legacy.rs behind
# `--engine legacy`; a new impl anywhere else means a model grew its own
# hand-rolled search again instead of a ModelSpec declaration.
bad=$(grep -rl 'impl TransitionSystem' crates/consistency/src \
    | grep -v -e '^crates/consistency/src/axiom/' \
              -e '^crates/consistency/src/legacy.rs$' || true)
if [[ -n "$bad" ]]; then
    echo "hand-rolled transition systems outside the axiom compilers:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "    ok"

echo "==> hot paths: no std/Fx HashMap or HashSet in the stream engine or the closure fixpoint"
# The PR-9 contract: the ingest hot path (every file of the stream
# engine, and the batch decoder) runs on index-addressed dense structures
# only, with no exception. The closure fixpoint (windows.rs) holds to the
# same rule: dense value ids, CSR writers and a bit-matrix edge set
# instead of per-address hash maps and sets. The gate bans the std and Fx
# `HashMap`/`HashSet` types, not hashing as such: the fixpoint's sparse
# edge set above the deep-rule cap is a `DenseMap`, the open-addressed
# integer table from util::densemap. Doc comments may *name*
# HashMap/HashSet; code may not.
hash_sites=$(grep -rnE 'Hash(Map|Set)' \
    crates/coherence/src/stream/ \
    crates/trace/src/binary.rs \
    crates/coherence/src/windows.rs \
    | grep -vE ':[0-9]+:[[:space:]]*//' || true)
if [[ -n "$hash_sites" ]]; then
    echo "HashMap/HashSet on a hot path:" >&2
    echo "$hash_sites" >&2
    exit 1
fi
echo "    ok"

echo "==> memo tables: no std HashMap or HashSet in the exact searches"
# The visited-state sets of the VMC search (backtrack.rs) and of the
# model-agnostic kernel (kernel.rs) are the Fx-hashed packed/interned
# tiers, with no per-probe allocation. A SipHash std map or set (a name
# not prefixed by `Fx`) in either file means a second memo representation
# came back. Doc comments may name them; code may not.
std_sites=$(grep -nE '(^|[^A-Za-z_])Hash(Map|Set)' \
    crates/coherence/src/kernel.rs \
    crates/coherence/src/backtrack.rs \
    | grep -vE ':[0-9]+:[[:space:]]*//' || true)
if [[ -n "$std_sites" ]]; then
    echo "std HashMap/HashSet in an exact-search memo:" >&2
    echo "$std_sites" >&2
    exit 1
fi
echo "    ok"

echo "==> obs hot path: exactly one clock-read site in crates/util/src/obs/"
# The zero-overhead-when-off contract (DESIGN.md §Observability): every
# clock read funnels through obs::now_us(), which is only reached from
# enabled branches. Any other Instant::now() in the obs tree is a bug.
clock_sites=$(grep -rn 'Instant::now' crates/util/src/obs/ \
    | grep -cvE ':[0-9]+:[[:space:]]*//' || true)
if [[ "$clock_sites" -ne 1 ]]; then
    echo "expected exactly 1 Instant::now code site in crates/util/src/obs/, found ${clock_sites}:" >&2
    grep -rn 'Instant::now' crates/util/src/obs/ | grep -vE ':[0-9]+:[[:space:]]*//' >&2
    exit 1
fi
echo "    ok"

echo "==> experiments --json emits parseable BENCH_vmc.json (+ obs receipts)"
tmp=$(mktemp -d)
(
    cd "$tmp"
    VERMEM_BENCH_FAST=1 \
        "$OLDPWD/target/release/experiments" --json > /dev/null
)
python3 - "$tmp/BENCH_vmc.json" "BENCH_vmc.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "vermem-bench-vmc/v10", d["schema"]
assert d["par_verify"] and d["prune_ablation"] and d["model_kernel"] \
    and d["tier_ablation"] and d["eaxiom"] and d["estream"], "empty receipts"
host = d["host_parallelism"]
assert host >= 1, host
for case in d["par_verify"]:
    # Bench honesty (PR-4): every case records host parallelism; every
    # ladder point above it is flagged overhead-only.
    assert case["host_parallelism"] == host, case
    jobs = [p["jobs"] for p in case["points"]]
    assert jobs[0] == 1 and len(jobs) >= 3, jobs
    for p in case["points"]:
        assert p["median_secs"] > 0 and p["ops_per_sec"] > 0
        assert p["overhead_only"] == (p["jobs"] > host), p
# E-PRUNE shape: 5 configs per case, prune counters present, every
# visited state a memo miss (memoize is on in every config), and within
# each case every pruned config explores at most the baseline's states.
prune = d["prune_ablation"]
by_case = {}
for row in prune:
    for k in ("states", "window_prunes", "symmetry_prunes",
              "nogood_hits", "nogoods_learned"):
        assert row[k] >= 0, row
    assert row["memo_hits"] >= 0, row
    assert row["states"] == row["memo_misses"], \
        "every visited state is a memo miss: %r" % row
    by_case.setdefault(row["case"], {})[row["config"]] = row
for case, rows in by_case.items():
    assert set(rows) == {"none", "windows", "symmetry", "nogoods", "all"}, \
        (case, sorted(rows))
    base = rows["none"]["states"]
    for cfg, row in rows.items():
        assert row["states"] <= base, \
            f"{case}/{cfg}: pruning grew the search ({row['states']} > {base})"

# E-KERNEL shape: exactly one row per (case, model); memo_misses ==
# states (memoization is integral to the kernel); no probe allocates, so
# key allocations never exceed states; and where every key fits two
# words (SC on one address) the memo allocates nothing at all.
def kernel_check(doc, which):
    seen = set()
    for row in doc["model_kernel"]:
        assert row["model"] in ("SC", "TSO", "PSO"), row
        assert row["states"] > 0 and row["states"] == row["memo_misses"], \
            (which, row)
        assert row["verdict"] in ("consistent", "violating", "unknown"), row
        key = (row["case"], row["model"])
        assert key not in seen, f"{which}: duplicate E-KERNEL row {key}"
        seen.add(key)
        assert row["key_allocs"] <= row["states"], \
            f"{which}: {key}: more key allocations than states: {row}"
        if row["case"].startswith("gen-3p-") \
           and row["case"].endswith("-1addr") and row["model"] == "SC":
            assert row["key_allocs"] == 0, \
                f"{which}: {key}: two-word keys allocated: {row}"
    assert len({c for (c, _) in seen}) == 2 and \
        {m for (_, m) in seen} == {"SC", "TSO", "PSO"}, (which, sorted(seen))

kernel_check(d, "fresh")

# E-TIER shape: per family exactly the tiered and exact-only configs;
# the tier split always accounts for every processed address; and the two
# configs return identical verdict counts (bit-identity of the frontline).
def tier_check(doc, which):
    t_by = {}
    for row in doc["tier_ablation"]:
        assert row["frontline_decided"] >= 0 and row["escalated"] >= 0, row
        assert row["frontline_decided"] + row["escalated"] == row["addresses"], \
            f"{which}: tier split != addresses: {row}"
        assert row["traces"] > 0 and row["median_secs"] > 0, row
        t_by.setdefault(row["family"], {})[row["tier"]] = row
    assert set(t_by) >= {"healthy-sim", "generated", "litmus",
                         "fault-injected"}, sorted(t_by)
    for family, rows in t_by.items():
        assert set(rows) == {"closure,exact", "exact"}, (family, sorted(rows))
        a, b = rows["closure,exact"], rows["exact"]
        for k in ("coherent", "incoherent", "unknown", "traces", "addresses"):
            assert a[k] == b[k], \
                f"{which}: {family}: tier configs disagree on {k}: {a[k]} != {b[k]}"
    # Headline gate: the closure frontline decides >= 90% of healthy-sim
    # capture addresses without escalating to the exact kernel.
    hs = t_by["healthy-sim"]["closure,exact"]
    assert hs["frontline_decided"] * 10 >= hs["addresses"] * 9, \
        (f"{which}: healthy-sim frontline below 90%: "
         f"{hs['frontline_decided']}/{hs['addresses']}")
    return t_by

tier_check(d, "fresh")

# E-AXIOM shape: every declared model appears in every family through the
# compiled and SAT engines (plus legacy for the four base models); all
# engines report identical verdict-class counts (per-trace identity is
# asserted in-bench; the receipt re-checks the aggregates); the litmus
# corpus actually separates the models; and the RA polynomial frontline
# decides >= 90% of healthy unique-value generated traces.
def axiom_check(doc, which):
    ax_by = {}
    for row in doc["eaxiom"]:
        assert row["model"] in ("SC", "TSO", "PSO", "Coherence", "RA",
                                "ARM-dob"), row
        assert row["engine"] in ("compiled", "legacy", "sat"), row
        assert row["traces"] > 0 and row["median_secs"] > 0, row
        assert row["consistent"] + row["violating"] + row["unknown"] \
            == row["traces"], row
        assert row["unknown"] == 0, \
            f"{which}: unbudgeted eaxiom run returned unknown: {row}"
        ax_by.setdefault((row["family"], row["model"]), {})[row["engine"]] = row
    assert {f for (f, _) in ax_by} == {"litmus", "generated",
                                       "fault-injected"}, sorted(ax_by)
    for (family, model), rows in ax_by.items():
        want = {"compiled", "sat"} if model in ("RA", "ARM-dob") \
            else {"compiled", "legacy", "sat"}
        assert set(rows) == want, (which, family, model, sorted(rows))
        for k in ("traces", "consistent", "violating", "unknown"):
            vals = {r[k] for r in rows.values()}
            assert len(vals) == 1, \
                f"{which}: {family}/{model} engines disagree on {k}: {rows}"
    # Model-strength ordering on the litmus corpus: SC admits the fewest
    # behaviours, coherence-only the most, RA/ARM-dob strictly between.
    lit = {m: rows["compiled"]["consistent"]
           for (f, m), rows in ax_by.items() if f == "litmus"}
    assert lit["SC"] < lit["TSO"] <= lit["PSO"] < lit["Coherence"], lit
    assert lit["SC"] < lit["RA"] < lit["Coherence"], lit
    assert lit["SC"] < lit["ARM-dob"] < lit["Coherence"], lit
    fl = doc["eaxiom_ra_frontline"]
    assert fl["traces"] > 0 and 0.0 <= fl["decision_rate"] <= 1.0, fl
    assert fl["frontline_decided"] * 10 >= fl["traces"] * 9, \
        f"{which}: RA frontline decision rate below 90%: {fl}"
    return ax_by

axiom_check(d, "fresh")

# E-STREAM shape: one row per stream count {1, 4, 16} with throughput +
# latency receipts; streaming verdicts bit-identical to batch; retained
# state gated by the streams x window_slack bounded-memory budget; and
# the 10x-length probe retains an identical peak.
def estream_check(doc, which):
    rows = doc["estream"]
    assert [r["streams"] for r in rows] == [1, 4, 16], \
        (which, [r["streams"] for r in rows])
    for r in rows:
        for k in ("window", "window_slack", "jobs", "events", "median_secs",
                  "sustained_ops_per_sec", "detections",
                  "p99_detect_latency_us", "peak_retained_windows",
                  "incoherent", "verdict_parity"):
            assert k in r, (which, k, sorted(r))
        assert r["events"] > 0 and r["median_secs"] > 0, r
        assert r["sustained_ops_per_sec"] > 0, r
        assert r["verdict_parity"] is True, \
            f"{which}: streaming vs batch verdict drift: {r}"
        assert r["peak_retained_windows"] <= r["streams"] * r["window_slack"], \
            f"{which}: peak retained windows exceed streams x slack: {r}"
        # p99 is null exactly when the row saw no detections (a 0 would
        # read as "instant detection").
        p99 = r["p99_detect_latency_us"]
        if r["detections"] == 0:
            assert p99 is None, \
                f"{which}: p99 without detections must be null: {r}"
        else:
            assert isinstance(p99, int) and p99 >= 0, r
    bm = doc["estream_bounded_memory"]
    assert bm["events_10x"] >= 10 * bm["events"], bm
    assert bm["peak_retained_windows"] == bm["peak_retained_windows_10x"], \
        f"{which}: peak retained windows grew with stream length: {bm}"
    # Same invariance with the flight recorder on: its per-shard ring is
    # charged to the peak and must stay length-independent too.
    assert bm["recorder_peak_retained_windows"] == \
        bm["recorder_peak_retained_windows_10x"], \
        f"{which}: recorder-on peak grew with stream length: {bm}"
    assert bm["recorder_peak_retained_windows"] >= \
        bm["peak_retained_windows"], \
        f"{which}: recorder ring not counted into the peak: {bm}"

estream_check(d, "fresh")

# Headline claim: on the §5.2 blow-up instance, --prune=all shrinks
# memo_misses (== states explored) by at least 5x vs --prune=none.
e52 = by_case["e5.2-overcons"]
ratio = e52["none"]["memo_misses"] / max(e52["all"]["memo_misses"], 1)
assert ratio >= 5.0, f"e5.2 prune ratio regressed to {ratio:.1f}x (< 5x)"

# Non-regression against the committed receipt: a decided pruned row must
# not explore more states than the committed run plus 5% slack (decided
# rows are cap-independent, so fast/full receipts are comparable). The
# committed receipt must carry the current schema, so these checks can
# never be skipped by a stale receipt.
committed = json.load(open(sys.argv[2]))
assert committed.get("schema") == "vermem-bench-vmc/v10", \
    f"committed receipt schema {committed.get('schema')} is not v10"
# The committed receipt must itself pass the tier, axiom, estream and
# kernel shape checks — including the 90% healthy-sim frontline gate, the
# 90% RA decision-rate gate, the streaming-vs-batch verdict-parity
# flags, the bounded-memory 10x-length peak-retained-windows
# invariance, and the kernel's key-allocation counters.
tier_check(committed, "committed")
axiom_check(committed, "committed")
estream_check(committed, "committed")
kernel_check(committed, "committed")
comm_by_case = {}
for row in committed["prune_ablation"]:
    comm_by_case.setdefault(row["case"], {})[row["config"]] = row
for case, rows in by_case.items():
    for cfg, row in rows.items():
        old = comm_by_case.get(case, {}).get(cfg)
        if old is None or row["verdict"] == "capped" \
           or old["verdict"] == "capped":
            continue
        limit = old["states"] * 1.05
        assert row["states"] <= limit, \
            f"{case}/{cfg}: states regressed {old['states']} -> {row['states']}"

obs = d["obs_overhead"]
assert obs["median_secs_disabled"] > 0 and obs["median_secs_enabled"] > 0, obs

# E-LIVE-OBS receipt: the flight recorder + rolling time-series run on the
# streaming workload with verdict/stats/tier identity asserted in-bench.
live = d["e_live_obs"]
assert live["streams"] >= 1 and live["events"] > 0, live
assert live["median_secs_off"] > 0 and live["median_secs_on"] > 0, live
assert live["verdict_identical"] is True, live
assert live["forensic_bundles"] >= 0, live

print(f"    ok ({len(d['par_verify'])} par cases, "
      f"{len(prune)} prune rows, "
      f"{len(d['model_kernel'])} model-kernel rows, "
      f"{len(d['tier_ablation'])} tier rows, "
      f"{len(d['eaxiom'])} axiom rows "
      f"(RA frontline {d['eaxiom_ra_frontline']['decision_rate']:.0%}), "
      f"{len(d['estream'])} estream rows, "
      f"e5.2 prune ratio {ratio:.0f}x, "
      f"obs overhead {obs['enabled_overhead_pct']:+.2f}%, "
      f"live obs {live['enabled_overhead_pct']:+.2f}% "
      f"with {live['forensic_bundles']} bundle(s))")
EOF
rm -rf "$tmp"

echo "==> --trace-out emits a Perfetto-loadable Chrome trace"
tmp=$(mktemp -d)
target/release/vermem sim --verify --trace-out "$tmp/sim.trace.json" > /dev/null
python3 - "$tmp/sim.trace.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
ev = d["traceEvents"]
assert ev, "no trace events"
assert all(e["ph"] in ("X", "C") for e in ev), "unexpected phase"
assert all(e["pid"] == 1 and e["tid"] >= 1 for e in ev), "pid/tid shape"
ts = [e["ts"] for e in ev]
assert ts == sorted(ts), "ts must be monotonic"
names = {e["name"] for e in ev}
assert "sim.run" in names and "verify.execution" in names, names
durs = [e for e in ev if e["ph"] == "X"]
assert all("dur" in e and e["dur"] >= 0 for e in durs), "X events need dur"
print(f"    ok ({len(ev)} events, {len(names)} distinct names)")
EOF
rm -rf "$tmp"

echo "==> vermem serve: streaming engine smoke (healthy + fault-injected)"
out=$(target/release/vermem serve --streams 2 --instrs 60 --window 64 --jobs 1)
grep -q "# serve: 2 stream(s), 0 incoherent" <<<"$out" \
    || { echo "serve healthy run not coherent:" >&2; echo "$out" >&2; exit 1; }
out=$(target/release/vermem serve --streams 3 --instrs 60 --fault --window 32)
grep -q "VIOLATION at address" <<<"$out" \
    || { echo "serve fault run surfaced no violation:" >&2; echo "$out" >&2; exit 1; }
echo "    ok"

echo "==> vermem serve --obs-addr: rust-test fetch on an ephemeral port (no curl)"
# The introspection-server suite binds 127.0.0.1:0 and fetches /metrics,
# /healthz and /snapshot.json over a raw TcpStream from the test itself.
cargo test -q --offline -p vermem-cli obs_server:: > /dev/null
echo "    ok"

echo "==> vermem serve --obs-addr: live Prometheus scrape shape check"
tmp=$(mktemp -d)
port=47613
# ~3.5s wall: ~1.3s input synthesis before the bind, then ~2.2s of live
# verification the scraper races against (it polls the port from t=0).
target/release/vermem serve --streams 8 --instrs 800000 --jobs 1 \
    --obs-addr "127.0.0.1:$port" > "$tmp/serve.out" &
serve_pid=$!
python3 - "$port" <<'EOF'
import json, re, socket, sys, time

port = int(sys.argv[1])

def fetch(path):
    for _ in range(400):
        try:
            s = socket.create_connection(("127.0.0.1", port), timeout=1)
            break
        except OSError:
            time.sleep(0.025)
    else:
        sys.exit("obs server never accepted a connection")
    s.sendall(f"GET {path} HTTP/1.1\r\nHost: v\r\nConnection: close\r\n\r\n"
              .encode())
    data = b""
    while chunk := s.recv(4096):
        data += chunk
    s.close()
    head, _, body = data.partition(b"\r\n\r\n")
    assert b" 200 OK" in head.splitlines()[0], head
    return body.decode()

metrics = fetch("/metrics")
# Prometheus text format 0.0.4: every family has a `# TYPE` comment and
# every sample line is `name[{le="..."}] value`.
families = set()
for line in metrics.splitlines():
    if line.startswith("# TYPE "):
        families.add(line.split()[2])
        continue
    assert not line.startswith("#"), repr(line)
    m = re.match(
        r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (-?\d+(\.\d+)?)$', line)
    assert m, f"bad metrics line: {line!r}"
    base = re.sub(r'_(bucket|sum|count)$', '', m.group(1))
    assert m.group(1) in families or base in families, \
        f"sample without TYPE comment: {line!r}"
assert "vermem_serve_streams" in families, sorted(families)
assert "vermem_serve_events_total" in families, sorted(families)
assert "vermem_serve_chunk_ingest_us" in families, sorted(families)

health = json.loads(fetch("/healthz"))
assert health["status"] in ("ok", "incoherent"), health
assert len(health["streams"]) == 8, health
for row in health["streams"]:
    assert set(row) == {"name", "events", "detections", "verdict", "done"}, row

print(f"    ok ({len(families)} metric families, "
      f"{sum(r['done'] for r in health['streams'])}/8 streams done at scrape)")
EOF
wait "$serve_pid"
grep -q "# obs: serving on 127.0.0.1:$port" "$tmp/serve.out" \
    || { echo "serve printed no '# obs:' line:" >&2; cat "$tmp/serve.out" >&2; exit 1; }
grep -q "# serve: 8 stream(s)" "$tmp/serve.out" \
    || { echo "serve aggregate line missing:" >&2; cat "$tmp/serve.out" >&2; exit 1; }
rm -rf "$tmp"

echo "==> vermem serve --forensics: flight-recorder bundles are valid JSONL"
tmp=$(mktemp -d)
out=$(target/release/vermem serve --streams 3 --instrs 60 --fault --window 32 \
    --forensics "$tmp/forensics")
grep -q "VIOLATION at address" <<<"$out" \
    || { echo "forensics fault run surfaced no violation:" >&2; echo "$out" >&2; exit 1; }
python3 - "$tmp/forensics" <<'EOF'
import json, os, sys
d = sys.argv[1]
files = sorted(os.listdir(d)) if os.path.isdir(d) else []
assert files, "no forensic JSONL files written"
bundles = 0
for name in files:
    assert name.endswith(".forensics.jsonl"), name
    for line in open(os.path.join(d, name)):
        b = json.loads(line)
        assert b["schema"] == "vermem-forensic/v1", b["schema"]
        assert b["cause"] in ("rmw-mismatch", "window-closed", "end-of-stream")
        assert b["detected_at"] >= b["issued_at"] >= 0, b
        assert b["latency_us"] >= 0 and isinstance(b["window_ops"], list), b
        assert b["tier"] in ("frontline", "exact", None), b
        bundles += 1
print(f"    ok ({bundles} bundle(s) across {len(files)} stream file(s))")
EOF
rm -rf "$tmp"

echo "==> all checks passed"
