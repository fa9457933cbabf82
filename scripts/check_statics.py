#!/usr/bin/env python3
"""Ratchet on process-global state in the library crates.

    python3 scripts/check_statics.py

Lists every `static` item under crates/*/src whose type is a Mutex, RwLock,
OnceLock, LazyLock or Atomic*, every `static mut`, and every static declared
inside a `thread_local!` block; then every `env::var` / `env::var_os` read
there, by the variable it names. Exits non-zero when one of them is not on
ALLOWED or ENV_ALLOWED below, or when an allowlisted item no longer exists
(the lists only shrink). Outputs must be a pure function of config, seed
and fault plan, so state that outlives one engine or one call, and input
that arrives through the process environment instead of an argument, needs
a reason here. Tests (tests/, crates/*/tests) and perfbench are out of
scope: they may read the environment to pick what they run.
"""
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, name) -> why it may stay
ALLOWED = {
    ("crates/runtime/src/lib.rs", "ENV"):
        "PICACHU_THREADS, read once; pool width never changes an output",
    ("crates/runtime/src/lib.rs", "OVERRIDE"):
        "per-thread pool-width override; pool width never changes an output",
    ("crates/runtime/src/lib.rs", "IN_WORKER"):
        "marks pool workers so nested parallel calls run serially",
    ("crates/core/src/mapstore.rs", "SEQ"):
        "makes mapping-store temp-file names unique for the atomic rename",
}

# (file, variable) -> why the library may read it from the environment
ENV_ALLOWED = {
    ("crates/runtime/src/lib.rs", "PICACHU_THREADS"):
        "pool width, read once; pool width never changes an output",
}

STATIC = re.compile(
    r"^\s*(?:pub(?:\([^)]*\))?\s+)?static\s+(mut\s+)?([A-Za-z_][A-Za-z0-9_]*)\s*:\s*([^=;]*)"
)
MUTABLE_TYPE = re.compile(r"\b(?:Mutex|RwLock|OnceLock|LazyLock|Atomic[A-Za-z0-9]+)\b")
# an environment read, with the variable's name when it is a literal
ENV_READ = re.compile(r'\benv::var(?:_os)?\b(?:\s*\(\s*"([^"]*)")?')


def library_sources():
    """(repo-relative path, code with line comments stripped) per file."""
    for path in sorted(ROOT.glob("crates/*/src/**/*.rs")):
        lines = path.read_text().splitlines()
        yield path.relative_to(ROOT).as_posix(), "\n".join(l.split("//", 1)[0] for l in lines)


def found_items():
    """(file, name, kind) of every listed static, in file order."""
    items = []
    for path in sorted(ROOT.glob("crates/*/src/**/*.rs")):
        rel = path.relative_to(ROOT).as_posix()
        depth = None  # brace depth inside a thread_local! block, else None
        for line in path.read_text().splitlines():
            code = line.split("//", 1)[0]
            if depth is None and re.search(r"\bthread_local!\s*\{", code):
                depth = 0
            m = STATIC.match(code)
            if m:
                mutable, name, ty = m.group(1), m.group(2), m.group(3).strip()
                if depth is not None:
                    items.append((rel, name, f"thread_local {ty}"))
                elif mutable:
                    items.append((rel, name, f"static mut {ty}"))
                elif MUTABLE_TYPE.search(ty):
                    items.append((rel, name, ty))
            if depth is not None:
                depth += code.count("{") - code.count("}")
                if depth <= 0 and "}" in code:
                    depth = None
    return items


def env_reads():
    """(file, variable) of every environment read, in file order; the
    variable is `?` when it is not a string literal."""
    return [(rel, m.group(1) or "?")
            for rel, code in library_sources() for m in ENV_READ.finditer(code)]


def ratchet(items, allowed, what, allowlist):
    """Prints one line per (file, name, kind) item; returns the failures."""
    bad = []
    for rel, name, kind in items:
        ok = (rel, name) in allowed
        print(f"{'ok  ' if ok else 'FAIL'} {rel}: {name}: {kind}")
        if not ok:
            bad.append(f"{rel}: {what} {name}")
    gone = sorted(set(allowed) - {(rel, name) for rel, name, _ in items})
    for rel, name in gone:
        bad.append(f"{rel}: {name} is allowlisted but gone; drop it from {allowlist}")
    return bad


def main():
    items = found_items()
    reads = [(rel, name, "environment read") for rel, name in env_reads()]
    bad = ratchet(items, ALLOWED, "static", "ALLOWED")
    bad += ratchet(reads, ENV_ALLOWED, "reads", "ENV_ALLOWED")
    if bad:
        sys.exit("statics ratchet: FAILED\n  " + "\n  ".join(bad))
    print(f"statics ratchet: OK ({len(items)} allowlisted statics, "
          f"{len(reads)} allowlisted environment reads)")


if __name__ == "__main__":
    main()
