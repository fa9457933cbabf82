#!/usr/bin/env python3
"""Ratchet on process-global mutable state in the library crates.

    python3 scripts/check_statics.py

Lists every `static` item under crates/*/src whose type is a Mutex, RwLock,
OnceLock, LazyLock or Atomic*, every `static mut`, and every static declared
inside a `thread_local!` block. Exits non-zero when one of them is not on
ALLOWED below, or when an ALLOWED item no longer exists (the list only
shrinks). Outputs must be a pure function of config, seed and fault plan,
so state that outlives one engine or one call needs a reason here.
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

STATIC = re.compile(
    r"^\s*(?:pub(?:\([^)]*\))?\s+)?static\s+(mut\s+)?([A-Za-z_][A-Za-z0-9_]*)\s*:\s*([^=;]*)"
)
MUTABLE_TYPE = re.compile(r"\b(?:Mutex|RwLock|OnceLock|LazyLock|Atomic[A-Za-z0-9]+)\b")


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


def main():
    items = found_items()
    bad = []
    for rel, name, kind in items:
        allowed = (rel, name) in ALLOWED
        print(f"{'ok  ' if allowed else 'FAIL'} {rel}: {name}: {kind}")
        if not allowed:
            bad.append(f"{rel}: {name}")
    gone = sorted(set(ALLOWED) - {(rel, name) for rel, name, _ in items})
    for rel, name in gone:
        bad.append(f"{rel}: {name} is allowlisted but gone; drop it from ALLOWED")
    if bad:
        sys.exit("statics ratchet: FAILED\n  " + "\n  ".join(bad))
    print(f"statics ratchet: OK ({len(items)} allowlisted items)")


if __name__ == "__main__":
    main()
