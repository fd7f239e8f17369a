#!/usr/bin/env python3
"""The repository's benchmark: one workload per run, inputs made from a seed.

    python3 perfbench/run.py --workload bootstrap --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The first run builds the shipped
entry points (pae-datagen, pae-extract, pae-model-pack, pae-serve) and
perfbench-tool from that checkout into .perfbench_build/, and each new
seed makes its inputs once into .perfbench_cache/ (both gitignored).
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, measured through the
programs as a user runs them; with --trace 1 they are the per-layer ones
from the traced run (perfbench-tool layers). See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import html
import json
import math
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

THREADS = 2                # batch threads, pinned below nproc
CATEGORY = "vacuum"        # Japanese: CJK tokenizer, the paper's running example
BOOT_CORPORA = 8           # bootstrap corpora per round
BOOT_PAGES = 200           # pages per bootstrap corpus
MODEL_PAGES = 1500         # corpus the deployed model is learned from
MODEL_DATAGEN_SEED = 42    # pae-datagen's default seed
CATALOG_SHARDS = 4         # the unseen catalog arrives as shards ...
CATALOG_PAGES = 5000       # ... of this many pages, each tagged by one run
SERVE_WORKERS = 2          # daemon workers == client connections
SERVE_POOL = 2048          # distinct catalog pages the clients cycle over
SERVE_JUDGED = 512         # of which these are all served and judged
SERVE_WARMUP_S = 0.5
PRECISION_FLOOR = 74.8     # lowest Vacuum Cleaner precision in the paper's Table II
TIMER_TOLERANCE = 2.0      # traced vs program stage timers, as a factor
KEEP_SEEDS = 3             # cached input sets kept in .perfbench_cache
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".perfbench_build")
CACHE = os.path.join(ROOT, ".perfbench_cache")
TOOLS = ["pae-datagen", "pae-extract", "pae-model-pack", "pae-serve"]
WORKLOADS = ("bootstrap", "catalog_apply", "serve_unix", "serve_tcp")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def binary(name):
    return os.path.join(BUILD, "perfbench-tool" if name == "perfbench-tool"
                        else os.path.join("pae", "tools", name))


class Child:
    """A started program; wait() reaps it and keeps its rusage."""

    def __init__(self, argv, cwd=None, stdout=None):
        self.err = tempfile.TemporaryFile(dir=CACHE)
        self.out = stdout if stdout is not None else tempfile.TemporaryFile(dir=CACHE)
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=cwd, stdout=self.out,
                                     stderr=self.err, stdin=subprocess.DEVNULL)
        self.wall = None
        self.rusage = None

    def wait(self, timeout):
        killer = threading.Timer(timeout, self.proc.kill)
        killer.start()
        try:
            _, status, self.rusage = os.wait4(self.proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM to this script): take the child along.
            self.proc.kill()
            os.wait4(self.proc.pid, 0)
            raise
        finally:
            killer.cancel()
        self.wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode

    def stop(self, timeout=20):
        """SIGTERM, then SIGKILL after `timeout`; always reaps."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            self.wait(timeout)

    def text(self, stream):
        stream.seek(0)
        return stream.read().decode(errors="replace")

    def stdout(self):
        return self.text(self.out)

    def stderr(self):
        return self.text(self.err)

    def rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0  # ru_maxrss is in KiB


def run(argv, timeout=170, cwd=None):
    """Runs a program to its end; raises with its stderr on failure."""
    child = Child(argv, cwd=cwd)
    code = child.wait(timeout)
    if code != 0:
        raise RuntimeError("%s exited %d: %s" % (
            os.path.basename(argv[0]), code, child.stderr()[-2000:]))
    return child


class Locked:
    def __init__(self, path):
        self.path = path

    def __enter__(self):
        self.f = open(self.path, "a+")
        fcntl.flock(self.f, fcntl.LOCK_EX)

    def __exit__(self, *exc):
        fcntl.flock(self.f, fcntl.LOCK_UN)
        self.f.close()


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with Locked(os.path.join(BUILD, ".lock")), \
            open(os.path.join(BUILD, "build.log"), "ab") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                      "perfbench-tool"] + TOOLS)
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=out).returncode != 0:
                raise RuntimeError("build failed; see .perfbench_build/build.log")


# Cached inputs are valid only for the sizes above.
INPUT_SHAPE = repr((CATEGORY, BOOT_CORPORA, BOOT_PAGES, MODEL_PAGES,
                    MODEL_DATAGEN_SEED, CATALOG_SHARDS, CATALOG_PAGES, THREADS))


def read_or_empty(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def datagen_seed(seed, role, index=0):
    # pae-datagen reads --seed as a 32-bit int; each role gets its own range.
    return str(role * 100_000_000 + (seed % 1_000_000) * 64 + index)


def make_model():
    """The deployed model, the same for every seed: learned once from a
    corpus of pae-datagen's default seed, so that the apply and serve
    workloads vary only in the pages they are sent."""
    base = os.path.join(CACHE, "model")
    paths = {
        "model_corpus": os.path.join(base, "corpus"),
        "one_page": os.path.join(base, "one_page"),
        "model": os.path.join(base, "model.paez"),
    }
    if read_or_empty(os.path.join(base, "ready")) != INPUT_SHAPE:
        shutil.rmtree(base, ignore_errors=True)
        run([binary("pae-datagen"), "--category", CATEGORY, "--products",
             str(MODEL_PAGES), "--seed", str(MODEL_DATAGEN_SEED), "--out",
             paths["model_corpus"]])
        crf = os.path.join(base, "model.crf")
        run([binary("pae-extract"), "--in", paths["model_corpus"],
             "--out", os.path.join(base, "model_triples.tsv"), "--threads",
             str(THREADS), "--iterations", "1", "--save-model", crf])
        run([binary("pae-model-pack"), "--model", crf, "--out", paths["model"]])
        # A one-page corpus: what apply mode loads before any real work.
        os.makedirs(os.path.join(paths["one_page"], "pages"))
        for name in os.listdir(paths["model_corpus"]):
            if name not in ("pages", "truth.tsv"):
                shutil.copy(os.path.join(paths["model_corpus"], name), paths["one_page"])
        first = sorted(os.listdir(os.path.join(paths["model_corpus"], "pages")))[0]
        shutil.copy(os.path.join(paths["model_corpus"], "pages", first),
                    os.path.join(paths["one_page"], "pages"))
        with open(os.path.join(base, "ready"), "w") as f:
            f.write(INPUT_SHAPE)
    return paths


def make_inputs(seed):
    """Generates (once per seed) every input a workload of this seed reads."""
    base = os.path.join(CACHE, "seed-%d" % seed)
    paths = {
        "boot": [os.path.join(base, "boot", "c%d" % i) for i in range(BOOT_CORPORA)],
        "catalog": [os.path.join(base, "catalog", "s%d" % i)
                    for i in range(CATALOG_SHARDS)],
    }
    with Locked(os.path.join(CACHE, ".lock")):
        paths.update(make_model())
        if read_or_empty(os.path.join(base, "ready")) != INPUT_SHAPE:
            shutil.rmtree(base, ignore_errors=True)
            gen = binary("pae-datagen")
            for i, corpus in enumerate(paths["boot"]):
                run([gen, "--category", CATEGORY, "--products", str(BOOT_PAGES),
                     "--seed", datagen_seed(seed, 1, i), "--out", corpus])
            for i, shard in enumerate(paths["catalog"]):
                run([gen, "--category", CATEGORY, "--products", str(CATALOG_PAGES),
                     "--seed", datagen_seed(seed, 2, i), "--out", shard])
            with open(os.path.join(base, "ready"), "w") as f:
                f.write(INPUT_SHAPE)
        os.utime(base)
        seeds = sorted((d for d in os.listdir(CACHE) if d.startswith("seed-")),
                       key=lambda d: os.path.getmtime(os.path.join(CACHE, d)))
        for old in seeds[:-KEEP_SEEDS]:
            shutil.rmtree(os.path.join(CACHE, old), ignore_errors=True)
    return paths


# ---------------------------------------------------------------- checks

def page_texts(corpus):
    """product id -> page text (tags dropped, entities decoded, no whitespace)."""
    pages = os.path.join(corpus, "pages")
    out = {}
    for name in os.listdir(pages):
        if name.endswith(".html"):
            with open(os.path.join(pages, name), encoding="utf-8") as f:
                text = html.unescape(re.sub(r"<[^>]*>", "", f.read()))
            out[name[:-5]] = "".join(text.split())
    return out


def read_triples(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "product_id\tattribute\tvalue":
        return []
    return [line.split("\t") for line in lines[1:]]


def check_grounded(corpus, triples_path, problems):
    """Every triple's product is a page, and its value occurs in that page."""
    texts = page_texts(corpus)
    triples = read_triples(triples_path)
    bad = 0
    for t in triples:
        if len(t) != 3 or t[0] not in texts or "".join(t[2].split()) not in texts[t[0]]:
            bad += 1
    if bad:
        problems.append("%s: %d of %d triples not grounded in their page"
                        % (triples_path, bad, len(triples)))
    if not triples:
        problems.append("%s: no triples" % triples_path)


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def evaluate(corpora, triple_files):
    child = run([binary("perfbench-tool"), "evaluate", "--corpora", ",".join(corpora),
                 "--triples", ",".join(triple_files)])
    return json.loads(child.stdout())


def check_quality(quality, problems):
    if quality["precision_pct"] < PRECISION_FLOOR:
        problems.append("precision %.2f%% below the %.1f%% floor"
                        % (quality["precision_pct"], PRECISION_FLOOR))


# ---------------------------------------------------------------- workloads

def quantile(values, q):
    """Nearest-rank quantile of exact samples."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def batch_ops(argvs, outputs, seconds, problems):
    """Runs whole rounds of `argvs` until `seconds` have passed.

    Returns (round_walls, children, failed). Outputs of later rounds must
    equal the first round's byte for byte.
    """
    round_walls, children, failed, first = [], [], 0, None
    start = time.perf_counter()
    while True:
        digests = []
        round_start = time.perf_counter()
        for argv, out in zip(argvs, outputs):
            child = Child(argv)
            if child.wait(170) != 0:
                failed += 1
                problems.append("%s exited %d: %s" % (
                    " ".join(argv[:2]), child.proc.returncode, child.stderr()[-500:]))
                digests.append(None)
            else:
                digests.append(digest(out))
            children.append(child)
        round_walls.append(time.perf_counter() - round_start)
        if first is None:
            first = digests
        elif digests != first:
            problems.append("outputs differ between rounds")
        if time.perf_counter() - start >= seconds:
            return round_walls, children, failed


def batch_metrics(round_walls, children, pages_per_round, setup_s, quality):
    # One latency sample per round: the time to process the whole input set.
    return {
        "setup_s": (setup_s, "s"),
        "pages_per_s": (pages_per_round * len(round_walls) / sum(round_walls),
                        "pages/s"),
        "latency_p50_ms": (quantile(round_walls, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(round_walls, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (max(c.rss_mb() for c in children), "MB"),
        "correct_triples": (quality["correct"], "count"),
        "precision_pct": (quality["precision_pct"], "%"),
    }


def workload_batch(name, corpora, pages, setup_argv, extra_argv, seconds, rundir,
                   problems):
    """Rounds of one pae-extract run per corpus; the set-up is one cold
    run of `setup_argv` before them."""
    extract = binary("pae-extract")
    setup = run([extract] + setup_argv + ["--out", os.path.join(rundir, "setup.tsv"),
                                          "--threads", str(THREADS), "--no-metrics"])
    outputs = [os.path.join(rundir, "out%d.tsv" % i) for i in range(len(corpora))]
    argvs = [[extract, "--in", c, "--out", o, "--threads", str(THREADS)] + extra_argv
             for c, o in zip(corpora, outputs)]
    round_walls, children, failed = batch_ops(argvs, outputs, seconds, problems)
    if failed:
        return None, len(children), failed
    for corpus, out in zip(corpora, outputs):
        check_grounded(corpus, out, problems)
    quality = evaluate(corpora, outputs)
    check_quality(quality, problems)
    log("%s: %d rounds over %d corpora of %d pages, %d triples, precision %.2f%%"
        % (name, len(round_walls), len(corpora), pages, quality["triples"],
           quality["precision_pct"]))
    return (batch_metrics(round_walls, children, pages * len(corpora), setup.wall,
                          quality), len(children), failed)


class Daemon:
    """A pae-serve started for one run; always stopped and reaped."""

    def __init__(self, inputs, rundir, transport):
        where = ["--socket", "pae.sock"] if transport == "unix" else ["--port", "0"]
        self.child = Child([binary("pae-serve")] + where + [
            "--model", inputs["model"], "--resources", inputs["model_corpus"],
            "--workers", str(SERVE_WORKERS)], cwd=rundir, stdout=subprocess.PIPE)
        try:
            self.where = self._await_ready(transport)
        except BaseException:
            self.stop()
            raise

    def _await_ready(self, transport):
        line = b""
        deadline = time.perf_counter() + 60
        while not line.endswith(b"\n"):
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([self.child.proc.stdout], [], [], left)[0]:
                raise RuntimeError("pae-serve sent no ready line")
            chunk = os.read(self.child.proc.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError("pae-serve exited: " + self.child.stderr()[-1000:])
            line += chunk
        self.setup_s = time.perf_counter() - self.child.start
        match = re.match(r"pae-serve ready (unix|tcp):(\S+)", line.decode())
        if not match:
            raise RuntimeError("unexpected ready line: %r" % line)
        return (["--socket", "pae.sock"] if transport == "unix"
                else ["--port", match.group(2)])

    def stop(self):
        self.child.stop()
        self.child.proc.stdout.close()
        return self.child.proc.returncode


def workload_serve(inputs, seconds, rundir, problems, transport):
    daemon = Daemon(inputs, rundir, transport)
    try:
        client = run([binary("perfbench-tool"), "serve"] + daemon.where + [
            "--catalog", inputs["catalog"][0], "--model", inputs["model"],
            "--resources", inputs["model_corpus"], "--connections", str(SERVE_WORKERS),
            "--pool", str(SERVE_POOL), "--judge", str(SERVE_JUDGED),
            "--seconds", str(seconds),
            "--warmup-s", str(SERVE_WARMUP_S)], cwd=rundir)
    finally:
        if daemon.stop() != 0:
            problems.append("pae-serve did not exit cleanly")
    r = json.loads(client.stdout().strip().splitlines()[-1])
    if r["mismatched"]:
        problems.append("%d responses differ from ExtractWithModel" % r["mismatched"])
    if r["samples"] == 0:
        problems.append("no requests completed in the measured window")
        return None, r["attempted"], r["failed"] + r["mismatched"]
    if r["pool"] != SERVE_POOL or r["judged_triples"] == 0:
        problems.append("request pool is not what the workload defines")
    check_quality(r, problems)
    log("%s: %d requests, %d measured; p50 %.4g ms, p90 %.4g ms, p99 %.4g ms with "
        "%d samples beyond; precision %.2f%%" % (
            "serve_" + transport, r["attempted"], r["samples"], r["p50_ms"],
            r["p90_ms"], r["p99_ms"], r["beyond_p99"], r["precision_pct"]))
    metrics = {
        "setup_s": (daemon.setup_s, "s"),
        "pages_per_s": (r["requests_per_s"], "pages/s"),
        "latency_p50_ms": (r["p50_ms"], "ms"),
        "latency_p90_ms": (r["p90_ms"], "ms"),
        "peak_rss_mb": (daemon.child.rss_mb(), "MB"),
        "correct_triples": (r["correct"], "count"),
        "precision_pct": (r["precision_pct"], "%"),
    }
    return metrics, r["attempted"], r["failed"] + r["mismatched"]


def traced(inputs, rundir, trace_path, problems):
    """The per-layer run: the program's own stage timers next to the
    traced calls into each layer, with both daemons up for transport."""
    report = os.path.join(rundir, "report.json")
    program = run([binary("pae-extract"), "--in", inputs["boot"][0], "--out",
                   os.path.join(rundir, "b.tsv"), "--threads", str(THREADS),
                   "--metrics-out", report])
    ru = program.rusage
    cpu_util = (ru.ru_utime + ru.ru_stime) / (program.wall * THREADS)
    daemons = []
    try:
        daemons = [Daemon(inputs, rundir, "unix")]
        daemons.append(Daemon(inputs, rundir, "tcp"))
        layers = run([binary("perfbench-tool"), "layers", "--corpus", inputs["boot"][0],
                      "--catalog", inputs["catalog"][0], "--model", inputs["model"],
                      "--resources", inputs["model_corpus"], "--threads", str(THREADS),
                      "--trace-out", trace_path] + daemons[0].where + daemons[1].where,
                     cwd=rundir)
    finally:
        for d in daemons:
            d.stop()
    metrics = {k: (v["value"], v["unit"])
               for k, v in json.loads(layers.stdout().strip().splitlines()[-1]).items()}
    metrics["bootstrap.cpu_util"] = (cpu_util, "ratio")

    # The program's stage timers (per use, from --metrics-out) against the
    # traced calls of the same stage.
    with open(report) as f:
        hist = json.load(f)["histograms"]
        f.seek(0)
        series = json.load(f)["series"]

    def mean(name):
        return hist[name]["sum"] / hist[name]["count"]

    pairs = {
        # Training sets grow after iteration 1, so compare the cost of one
        # optimizer iteration over one training sentence.
        "crf train us/(iteration*sentence)": (
            hist["crf.train.seconds"]["sum"] * 1e6 / sum(
                i * n for i, n in zip(series["crf.iterations"],
                                      series["bootstrap.train_sentences"])),
            metrics["crf.train_ms_per_iteration"][0] * 1e3
            / metrics["crf.train_sentences"][0]),
        "tag s": (mean("bootstrap.tag.seconds"), metrics["crf.tag_s"][0]),
        "word2vec s": (mean("embed.train.seconds"), metrics["embed.word2vec_s"][0]),
        "clean s (veto+word2vec+filter)": (
            mean("bootstrap.clean.seconds"),
            metrics["core.clean_s"][0] + metrics["embed.word2vec_s"][0]),
        "ingest s": (mean("ingest.seconds"), metrics["core.ingest_bootstrap_s"][0]),
    }
    for name, (program_value, traced_value) in pairs.items():
        ratio = traced_value / program_value if program_value > 0 else float("inf")
        log("timer agreement %-32s program %.6g traced %.6g ratio %.3f"
            % (name, program_value, traced_value, ratio))
        if not 1 / TIMER_TOLERANCE <= ratio <= TIMER_TOLERANCE:
            problems.append("traced %s disagrees with the program's timer" % name)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops and reaps what it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("run.py: run it from the root of a source checkout "
            "(no CMakeLists.txt and src/ here)")
        return 2

    os.makedirs(CACHE, exist_ok=True)
    build()
    inputs = make_inputs(args.seed)
    os.makedirs(os.path.join(CACHE, "runs"), exist_ok=True)
    rundir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(CACHE, "runs"))
    problems = []
    try:
        if args.trace:
            trace_path = os.path.join(CACHE, "trace-%s-%d.json" % (args.workload, args.seed))
            metrics = traced(inputs, rundir, trace_path, problems)
            attempted, failed = 2, 0
        elif args.workload == "bootstrap":
            # Set-up: ingest, seed and distant supervision, no learning.
            metrics, attempted, failed = workload_batch(
                "bootstrap", inputs["boot"], BOOT_PAGES,
                ["--in", inputs["boot"][0], "--iterations", "0"], [],
                args.seconds, rundir, problems)
        elif args.workload == "catalog_apply":
            # Set-up: model and resource load, on a one-page corpus.
            apply = ["--apply-model", inputs["model"]]
            metrics, attempted, failed = workload_batch(
                "catalog_apply", inputs["catalog"], CATALOG_PAGES,
                ["--in", inputs["one_page"]] + apply, apply,
                args.seconds, rundir, problems)
        else:
            metrics, attempted, failed = workload_serve(
                inputs, args.seconds, rundir, problems, args.workload[len("serve_"):])
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for problem in problems:
        log("CHECK FAILED:", problem)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (metrics or {}).items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
