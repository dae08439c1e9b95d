#!/usr/bin/env python3
"""splint — sprofile's repo-specific lint pass.

Mechanical enforcement of repo invariants that no general-purpose tool
checks (see tools/lint/README.md for the rationale behind each rule):

  test-registration   every tests/*_test.cc is registered in the
                      top-level CMakeLists SPROFILE_TESTS list
  sanitizer-coverage  every registered test that spawns threads is
                      matched by BOTH sanitizer ctest regexes in CI
  bench-json          every bench/*.cc emits machine-readable JSON lines
                      (EmitJsonLine)
  atomic-orders       no implicit-memory-order atomic operation in the
                      lock-free cores (ring_buffer.h, cow_pages.h,
                      page_arena.h, hazard_slots.h) and the obs paths
  facade-includes     public include/sprofile/ headers reach into
                      src/core only through the documented allowlist
  payload-alloc       page payload memory comes only from the two
                      allocators (cow_pages.h, page_arena.h) — no naked
                      mmap / operator-new / malloc elsewhere in the
                      storage layers
  metric-docs         every metric registered through the
                      SPROFILE_METRIC_* macros / AddCallbackGauge has a
                      catalog row in docs/OBSERVABILITY.md
  failpoint-docs      every SPROFILE_FAILPOINT injection site in the
                      library (src/, include/) has a catalog row in
                      docs/ROBUSTNESS.md — chaos tests arm points by
                      name, so an undocumented point is undiscoverable
  tracked-build-artifacts
                      no build*/ tree is committed to the repository
                      (PR 6 accidentally committed build_review/)

Exit status: 0 clean, 1 violations (printed one per line as
path:line: [rule] message), 2 usage/internal error.

--selftest runs every rule against its seeded-violation fixture tree
(tools/lint/fixtures/<rule>/) and fails unless each rule fires there —
proving a refactor of this file cannot silently blunt a rule.
"""

import argparse
import os
import re
import sys

SCRIPT_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_ROOT = os.path.normpath(os.path.join(SCRIPT_DIR, "..", ".."))
FIXTURES_DIR = os.path.join(SCRIPT_DIR, "fixtures")

# A test spawns threads if it mentions any of these (ShardedProfiler
# tests spawn shard workers even without a literal std::thread).
THREAD_RE = re.compile(
    r"std::thread|std::jthread|pthread_create|ShardedProfiler")

# facade-includes allowlist: the public headers deliberately built on the
# core types they re-export. Everything else added to include/sprofile/
# must stay behind the facade (put the core include in a .cc — see
# src/engine/sharded_profiler.cc's MakeEngineArenaAllocator for the
# pattern).
FACADE_ALLOWED_CORE_INCLUDES = {
    # The concept vocabulary names GroupStat in its return types.
    "include/sprofile/profiler_concept.h": {"core/frequency_profile.h"},
    # The adapters ARE the core types' facade spellings.
    "include/sprofile/adapters.h": {
        "core/frequency_profile.h",
        "core/keyed_profile.h",
    },
    # CheckedProfiler wraps FrequencyProfile directly.
    "include/sprofile/checked.h": {"core/frequency_profile.h"},
    # Options translate into core construction parameters.
    "include/sprofile/options.h": {
        "core/frequency_profile.h",
        "core/keyed_profile.h",
    },
    # The engine's allocator seam (PageAllocatorRef) is part of its API.
    # page_arena.h is NOT allowed: arena construction is out-of-line in
    # src/engine/sharded_profiler.cc.
    "include/sprofile/engine/sharded_profiler.h": {"core/cow_pages.h"},
}

# payload-alloc: raw page-memory acquisition is confined to these files.
PAYLOAD_ALLOCATOR_FILES = {"cow_pages.h", "page_arena.h"}
PAYLOAD_SCAN_DIRS = ("src/core", "src/engine", "include/sprofile/engine")
PAYLOAD_FORBIDDEN = re.compile(
    r"\bmmap\s*\(|::operator new\b|\bstd::malloc\s*\(|\bmalloc\s*\(|"
    r"\bnew\s+(?:char|std::byte|uint8_t|unsigned char)\s*\[")

# atomic-orders applies to the lock-free storage cores, the engine's
# hazard slots and the obs record/trace paths, wherever they live under
# the scanned root.
ATOMIC_ORDER_FILES = {"ring_buffer.h", "cow_pages.h", "page_arena.h",
                      "metrics.h", "trace_ring.h", "hazard_slots.h"}

# metric-docs: where metric registrations live (tests may register
# ad-hoc metrics without documenting them), and the catalog they must
# appear in.
METRIC_SCAN_DIRS = ("src", "include", "bench", "examples")
METRIC_DOCS_PATH = "docs/OBSERVABILITY.md"
# Registration spellings: the macros, a literal-first-arg callback
# gauge, and {"name", "unit", ...} rows of a gauge table (see
# RegisterObsGauges in sharded_profiler.h). \s crosses clang-format
# line breaks.
METRIC_NAME_RES = (
    re.compile(r'SPROFILE_METRIC_(?:COUNTER|GAUGE|HISTOGRAM)\(\s*"([^"]+)"'),
    re.compile(r'AddCallbackGauge\(\s*"([^"]+)"'),
    re.compile(r'\{"(sprofile_[a-z0-9_]+)",\s*"'),
)
# failpoint-docs: injection sites live in the library only — tests and
# examples arm existing points (or registry-only names) and need no
# catalog entry.
FAILPOINT_SCAN_DIRS = ("src", "include")
FAILPOINT_DOCS_PATH = "docs/ROBUSTNESS.md"
FAILPOINT_SITE_RE = re.compile(r'SPROFILE_FAILPOINT\(\s*"([^"]+)"')

ATOMIC_CALL_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")
ATOMIC_DECL_RE = re.compile(r"std::atomic(?:<[^;]*>|_\w+)\s+(\w+)\s*[;{=]")
ATOMIC_OP_SHORTHAND = re.compile(r"(\+\+|--)\s*$|^\s*(\+\+|--)|[+\-|&^]?=[^=]")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def read(root, relpath):
    try:
        with open(os.path.join(root, relpath), encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


def iter_files(root, reldir, suffixes):
    base = os.path.join(root, reldir)
    if not os.path.isdir(base):
        return
    for dirpath, _, names in os.walk(base):
        for name in sorted(names):
            if name.endswith(tuple(suffixes)):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, root).replace(os.sep, "/")


def registered_tests(cmake_text):
    m = re.search(r"set\(SPROFILE_TESTS\s*\n(.*?)\)", cmake_text, re.DOTALL)
    if m is None:
        return None
    return set(re.findall(r"(\w+)", m.group(1)))


def sanitizer_regexes(ci_text):
    """Maps sanitizer kind -> list of ctest -R regex strings, by pairing
    each `-R "..."` with the SPROFILE_SANITIZE_* flag seen in the same
    job (the nearest preceding cmake configure line)."""
    out = {"asan": [], "tsan": []}
    current = None
    for line in ci_text.splitlines():
        if "SPROFILE_SANITIZE_ADDRESS=ON" in line:
            current = "asan"
        elif "SPROFILE_SANITIZE_THREAD=ON" in line:
            current = "tsan"
        for pat in re.findall(r'-R\s+"([^"]+)"', line):
            if current is not None:
                out[current].append(pat)
    return out


# ---------------------------------------------------------------------------
# Rules. Each takes a root directory, returns a list of Violations.
# ---------------------------------------------------------------------------


def rule_test_registration(root):
    violations = []
    cmake = read(root, "CMakeLists.txt")
    if cmake is None:
        return violations
    registered = registered_tests(cmake)
    if registered is None:
        violations.append(Violation(
            "CMakeLists.txt", 1, "test-registration",
            "no set(SPROFILE_TESTS ...) list found"))
        return violations
    for rel in iter_files(root, "tests", ("_test.cc",)):
        name = os.path.basename(rel)[:-len(".cc")]
        if name not in registered:
            violations.append(Violation(
                rel, 1, "test-registration",
                f"{name} is not in the SPROFILE_TESTS list in "
                "CMakeLists.txt — it will never run under ctest"))
    return violations


def rule_sanitizer_coverage(root):
    violations = []
    ci = read(root, ".github/workflows/ci.yml")
    if ci is None:
        return violations
    regexes = sanitizer_regexes(ci)
    for kind in ("asan", "tsan"):
        if not regexes[kind]:
            violations.append(Violation(
                ".github/workflows/ci.yml", 1, "sanitizer-coverage",
                f"no ctest -R regex found for the {kind} job"))
    for rel in iter_files(root, "tests", ("_test.cc",)):
        text = read(root, rel) or ""
        if not THREAD_RE.search(text):
            continue
        name = os.path.basename(rel)[:-len(".cc")]
        for kind in ("asan", "tsan"):
            for pat in regexes[kind]:
                if not re.search(pat, name):
                    violations.append(Violation(
                        rel, 1, "sanitizer-coverage",
                        f"{name} spawns threads but the {kind} ctest "
                        f'regex "{pat}" does not match it — widen the '
                        "regex in .github/workflows/ci.yml"))
    return violations


def rule_bench_json(root):
    violations = []
    for rel in iter_files(root, "bench", (".cc",)):
        text = read(root, rel) or ""
        if "EmitJsonLine" in text:
            continue
        violations.append(Violation(
            rel, 1, "bench-json",
            "bench emits no JSON lines (call EmitJsonLine from "
            "bench/bench_common.h) — the trajectory tooling cannot "
            "consume its output"))
    return violations


def _strip_comments(text):
    """Blanks out comments and string literals, preserving line structure
    (newlines survive so line numbers stay valid)."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "str":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"' or c == "\n":
                state = "code"
            out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def _call_args(text, open_paren):
    """Returns the argument substring of the call whose '(' is at
    open_paren, or None when unbalanced."""
    depth = 0
    for j in range(open_paren, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:j]
    return None


def rule_atomic_orders(root):
    violations = []
    targets = []
    for reldir in ("src", "include"):
        for suffix in (".h", ".cc"):
            for rel in iter_files(root, reldir, (suffix,)):
                if os.path.basename(rel) in ATOMIC_ORDER_FILES:
                    targets.append(rel)
    for rel in sorted(set(targets)):
        raw = read(root, rel) or ""
        text = _strip_comments(raw)
        # Member-function calls on atomics: every one must spell its
        # memory_order explicitly.
        for m in ATOMIC_CALL_RE.finditer(text):
            args = _call_args(text, text.index("(", m.start(1)))
            if args is None or "memory_order" not in args:
                line = text.count("\n", 0, m.start()) + 1
                violations.append(Violation(
                    rel, line, "atomic-orders",
                    f"atomic .{m.group(1)}() without an explicit "
                    "std::memory_order argument (defaults to seq_cst "
                    "silently)"))
        # Operator shorthand (x++, x += 1, x = v) on declared atomics is
        # always implicit seq_cst.
        atomics = set(ATOMIC_DECL_RE.findall(text))
        if atomics:
            shorthand = re.compile(
                r"(?:\+\+|--)\s*(%(names)s)\b|\b(%(names)s)\s*(?:\+\+|--|"
                r"[+\-|&^]=|=(?![=]))"
                % {"names": "|".join(re.escape(a) for a in atomics)})
            for m in shorthand.finditer(text):
                name = m.group(1) or m.group(2)
                # Skip declarations/initializations of the atomic itself.
                decl = re.compile(
                    r"std::atomic(?:<[^;]*>|_\w+)\s+" + re.escape(name))
                line_start = text.rfind("\n", 0, m.start()) + 1
                line_end = text.find("\n", m.start())
                line_text = text[line_start:line_end if line_end != -1 else None]
                if decl.search(line_text):
                    continue
                # Skip declarations of PLAIN variables that merely share a
                # name with an atomic elsewhere in the file (`uint64_t seq
                # = head_.fetch_add(...)`, default parameters, and plain
                # mirror structs like obs::TraceRecord).
                plain_decl = re.compile(
                    r"\b(?:const\s+)?[A-Za-z_][\w:]*(?:<[^<>]*>)?[&*\s]+"
                    + re.escape(name) + r"\s*=")
                if plain_decl.search(line_text):
                    continue
                line = text.count("\n", 0, m.start()) + 1
                violations.append(Violation(
                    rel, line, "atomic-orders",
                    f"operator shorthand on atomic '{name}' is implicit "
                    "seq_cst — use .load/.store/.fetch_* with an "
                    "explicit order"))
    return violations


def rule_facade_includes(root):
    violations = []
    include_re = re.compile(r'#include\s+"(core/[^"]+)"')
    for rel in iter_files(root, "include/sprofile", (".h",)):
        allowed = FACADE_ALLOWED_CORE_INCLUDES.get(rel, set())
        raw = read(root, rel) or ""
        for i, line in enumerate(raw.splitlines(), start=1):
            m = include_re.search(line)
            if m and m.group(1) not in allowed:
                violations.append(Violation(
                    rel, i, "facade-includes",
                    f'facade header includes "{m.group(1)}" which is not '
                    "in the documented allowlist (tools/lint/splint.py) "
                    "— move the dependency out of line (see "
                    "MakeEngineArenaAllocator) or extend the allowlist "
                    "with a rationale"))
    return violations


def rule_payload_alloc(root):
    violations = []
    for reldir in PAYLOAD_SCAN_DIRS:
        for rel in iter_files(root, reldir, (".h", ".cc")):
            if os.path.basename(rel) in PAYLOAD_ALLOCATOR_FILES:
                continue
            text = _strip_comments(read(root, rel) or "")
            for i, line in enumerate(text.splitlines(), start=1):
                if PAYLOAD_FORBIDDEN.search(line):
                    violations.append(Violation(
                        rel, i, "payload-alloc",
                        "raw page-memory allocation outside the two "
                        "allocators (HeapPageAllocator in cow_pages.h, "
                        "ArenaPageAllocator in page_arena.h) — route it "
                        "through a PageAllocator so stats, sanitizer "
                        "modes, and NUMA policy keep working"))
    return violations


def rule_metric_docs(root):
    violations = []
    docs = read(root, METRIC_DOCS_PATH)
    registrations = []  # (relpath, line, name)
    for reldir in METRIC_SCAN_DIRS:
        for rel in iter_files(root, reldir, (".h", ".cc", ".cpp")):
            raw = read(root, rel) or ""
            # Doc comments may quote the macro spelling as an example
            # ("SPROFILE_METRIC_COUNTER(\"name\", ...)") — blank those
            # lines (keeping line numbers) so only code registers.
            scrubbed = "\n".join(
                "" if line.lstrip().startswith("//") else line
                for line in raw.split("\n"))
            for pat in METRIC_NAME_RES:
                for m in pat.finditer(scrubbed):
                    line = scrubbed.count("\n", 0, m.start()) + 1
                    registrations.append((rel, line, m.group(1)))
    if not registrations:
        return violations
    if docs is None:
        violations.append(Violation(
            METRIC_DOCS_PATH, 1, "metric-docs",
            "metrics are registered but the catalog file is missing"))
        return violations
    documented = set(re.findall(r"^\|\s*`([^`]+)`", docs, re.M))
    seen = set()
    for rel, line, name in registrations:
        if name in documented or name in seen:
            continue
        seen.add(name)
        violations.append(Violation(
            rel, line, "metric-docs",
            f"metric '{name}' has no catalog row in {METRIC_DOCS_PATH} "
            "(a markdown table row starting with | `" + name + "` |) — "
            "every exported metric must be documented"))
    return violations


def rule_failpoint_docs(root):
    violations = []
    docs = read(root, FAILPOINT_DOCS_PATH)
    sites = []  # (relpath, line, name)
    for reldir in FAILPOINT_SCAN_DIRS:
        for rel in iter_files(root, reldir, (".h", ".cc", ".cpp")):
            raw = read(root, rel) or ""
            # failpoint.h itself spells the macro (definition + doc
            # examples); comment lines elsewhere may quote it too.
            if os.path.basename(rel) == "failpoint.h":
                continue
            scrubbed = "\n".join(
                "" if line.lstrip().startswith("//") else line
                for line in raw.split("\n"))
            for m in FAILPOINT_SITE_RE.finditer(scrubbed):
                line = scrubbed.count("\n", 0, m.start()) + 1
                sites.append((rel, line, m.group(1)))
    if not sites:
        return violations
    if docs is None:
        violations.append(Violation(
            FAILPOINT_DOCS_PATH, 1, "failpoint-docs",
            "failpoint sites exist but the catalog file is missing"))
        return violations
    documented = set(re.findall(r"^\|\s*`([^`]+)`", docs, re.M))
    seen = set()
    for rel, line, name in sites:
        if name in documented or name in seen:
            continue
        seen.add(name)
        violations.append(Violation(
            rel, line, "failpoint-docs",
            f"failpoint '{name}' has no catalog row in "
            f"{FAILPOINT_DOCS_PATH} (a markdown table row starting with "
            "| `" + name + "` |) — chaos tooling arms points by name, so "
            "every injection site must be documented"))
    return violations


def rule_tracked_build_artifacts(root):
    """Flags build*/ paths committed to the repository. With a .git
    directory the tracked set comes from `git ls-files` (the authoritative
    answer); the fixture tree has no .git, so it falls back to a
    filesystem walk."""
    violations = []
    build_re = re.compile(r"^build[^/]*/")
    paths = []
    if os.path.isdir(os.path.join(root, ".git")):
        import subprocess
        try:
            out = subprocess.run(
                ["git", "ls-files"], cwd=root, capture_output=True,
                text=True, check=True).stdout
        except (OSError, subprocess.CalledProcessError):
            return violations  # no git available: nothing to assert
        paths = out.splitlines()
    else:
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                rel = os.path.relpath(
                    os.path.join(dirpath, name), root).replace(os.sep, "/")
                paths.append(rel)
    flagged_dirs = set()
    for rel in paths:
        m = build_re.match(rel)
        if m is None:
            continue
        top = m.group(0)
        if top in flagged_dirs:
            continue  # one violation per build tree, not per file
        flagged_dirs.add(top)
        violations.append(Violation(
            rel, 1, "tracked-build-artifacts",
            f"build tree '{top}' is committed to the repository — "
            "`git rm -r --cached " + top.rstrip("/") + "` and keep "
            "build*/ in .gitignore"))
    return violations


RULES = {
    "test-registration": rule_test_registration,
    "sanitizer-coverage": rule_sanitizer_coverage,
    "bench-json": rule_bench_json,
    "atomic-orders": rule_atomic_orders,
    "facade-includes": rule_facade_includes,
    "payload-alloc": rule_payload_alloc,
    "metric-docs": rule_metric_docs,
    "failpoint-docs": rule_failpoint_docs,
    "tracked-build-artifacts": rule_tracked_build_artifacts,
}

# Fixture directory name per rule (dashes -> underscores).
FIXTURE_FOR_RULE = {name: name.replace("-", "_") for name in RULES}


def run_rules(root, rule_names):
    violations = []
    for name in rule_names:
        violations.extend(RULES[name](root))
    return violations


def selftest():
    """Every rule must fire on its seeded-violation fixture tree AND stay
    quiet on files the fixture marks as clean (proving rules detect the
    violation, not just anything)."""
    failures = []
    for name, fixture in sorted(FIXTURE_FOR_RULE.items()):
        fixture_root = os.path.join(FIXTURES_DIR, fixture)
        if not os.path.isdir(fixture_root):
            failures.append(f"{name}: fixture directory missing: {fixture_root}")
            continue
        found = RULES[name](fixture_root)
        if not found:
            failures.append(
                f"{name}: rule did NOT fire on its seeded-violation "
                f"fixture ({fixture_root}) — the rule has gone blind")
            continue
        for v in found:
            if "clean" in os.path.basename(v.path):
                failures.append(
                    f"{name}: rule fired on the fixture's CLEAN file "
                    f"({v}) — the rule over-matches")
        print(f"selftest ok: {name} fired {len(found)}x on its fixture")
    if failures:
        for f in failures:
            print(f"selftest FAIL: {f}", file=sys.stderr)
        return 1
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        prog="splint", description="sprofile repo-specific lint")
    parser.add_argument("--root", default=DEFAULT_ROOT,
                        help="repository root to lint (default: the repo "
                        "containing this script)")
    parser.add_argument("--rules", nargs="*", choices=sorted(RULES),
                        help="subset of rules to run (default: all)")
    parser.add_argument("--selftest", action="store_true",
                        help="verify every rule fires on its fixture")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()

    rule_names = args.rules if args.rules else sorted(RULES)
    violations = run_rules(args.root, rule_names)
    for v in violations:
        print(v)
    if violations:
        print(f"splint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"splint: clean ({len(rule_names)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
