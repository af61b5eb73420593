#!/usr/bin/env python3
"""List the `pub` items of the library crates that no non-test code names.

  python3 scripts/census.py

Declarations are the `pub` functions and methods, `struct`s, `enum`s,
`trait`s, `const`s, `static`s, `type`s and `mod`s in the non-test code of
the library crates (`src/` and `crates/*/src/`, binaries excluded). Callers
are every line of non-test code in the workspace: the library sources, each
`bin/` (the frozen `bin/perf` harness included), `src/bin`, `examples/` and
`benches/`. Not callers: `tests/` directories, everything from a file's
top-level `#[cfg(test)]` on, comment and doc lines, and `pub use`
re-exports (a re-export declares a name again; it calls nothing).

An item is reported when its name occurs in no caller line other than the
declarations of that name; a module, when moreover no item in it is used
or allowlisted. A name inside its own type's top-level `impl` blocks is no
use of it: a method called only by its siblings, or a type named only by
`impl Trait for Type`, is reported. Matching is by name alone, so the census can
miss dead code (a dead `len` hides behind every live one) but never flags
live code: `JobSpec::with_extra_output`, called only by path, counts as used.

Reported items in `ALLOWLIST` are test oracles kept on purpose and are
printed on stdout. Any other reported item, and any allowlist entry that is
no longer reported, goes to stderr and makes the exit status 1. The
workspace scanned is the one this script sits in. Standard library only.
"""

import re
import sys
from collections import Counter
from pathlib import Path

# Each entry is kept as the oracle of the test named on its comment line.
ALLOWLIST = {
    # mrsim tests/trace_observability.rs::one_recording_renders_both_files
    "trace::validate_json",
    # ntga-core tests/algebra_properties.rs::rewrites_agree_random (Lemma 1)
    "rewrite::check_rewrites",
    # mrsim spill.rs::sort_matches_owned_pair_reference
    "SpillArena::push_pair",
    # mrsim engine.rs::broadcast_reaches_every_task_and_is_charged
    "CostModel::zero_overhead",
    # ntga-core tests/algebra_properties.rs::partial_then_full_equals_full (Definition 3)
    "logical::partial_beta_unnest",
    # ntga tests/testbed_suite.rs::testbed_queries_roundtrip_through_text (the parser's inverse)
    "Query::to_text",
    # ntga-core tests/splice_differential.rs::reduce_side_join_matches_typed_reference
    "TaskContext::take_counters",
    # ntga-core tests/splice_differential.rs::broadcast_join_matches_typed_reference
    "BroadcastJoin::build_table",
}

ROOT = Path(__file__).resolve().parent.parent

ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe)\s+)*(fn|struct|enum|trait|const|static|type|mod)\s+(\w+)"
)
IMPL = re.compile(r"^impl\b(?:\s*<[^{]*?>)?\s+(?:[\w:<>, ']+\s+for\s+)?(\w+)")
INLINE_MOD = re.compile(r"^(?:pub\s+)?mod\s+(\w+)\s*\{")
WORD = re.compile(r"[A-Za-z_]\w*")
# Kinds of item whose `impl` blocks are their own: a name there is no use.
TYPES = ("struct", "enum", "trait", "type")


def non_test_lines(path):
    """(line number, text) of the code before the top-level `#[cfg(test)]`,
    without comment lines or `pub use` statements."""
    in_reexport = False
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if line.startswith("#[cfg(test)]"):
            return
        stripped = line.strip()
        if in_reexport or stripped.startswith("pub use "):
            in_reexport = not stripped.endswith(";")
            continue
        if stripped.startswith(("//", "/*")):
            continue
        yield number, line


def sources():
    """Every non-test Rust file, and whether it is library code."""
    for crate in [ROOT, *sorted(ROOT.glob("crates/*"))]:
        for path in sorted(crate.glob("src/**/*.rs")):
            yield path, "bin" not in path.relative_to(crate / "src").parts[:-1]
        for extra in ("examples", "benches"):
            for path in sorted(crate.glob(f"{extra}/**/*.rs")):
                yield path, False


def owner_of(path):
    """The module a file's top-level items are named under."""
    if path.stem in ("lib", "mod"):
        parent = path.parent
        return parent.parent.name if parent.name == "src" else parent.name
    return path.stem


def main():
    declared = []  # (owner::name, name, kind, path, line number, own type)
    uses = Counter()
    own_uses = Counter()  # (type, name) inside that type's `impl` blocks
    own_declarations = Counter()  # likewise, for declaration lines
    for path, library in sources():
        owner = None
        impl = None  # the type whose top-level `impl` block this line is in
        for number, line in non_test_lines(path):
            if line[:1].strip() and line.strip() not in ("where", "{"):
                header = IMPL.match(line)
                impl = header.group(1) if header else None
            words = WORD.findall(line)
            uses.update(words)
            if impl:
                own_uses.update((impl, word) for word in words)
            if not library:
                continue
            scope = IMPL.match(line) or INLINE_MOD.match(line)
            if scope:
                owner = scope.group(1)
            item = ITEM.match(line)
            if item:
                kind, name = item.groups()
                # An indented item belongs to the `impl` or inline `mod` above it.
                indented = line[0].isspace()
                key = f"{owner if indented else owner_of(path)}::{name}"
                own = impl if indented else name if kind in TYPES else None
                declared.append((key, name, kind, path, number, own))
                if impl:
                    own_declarations[impl, name] += 1
    declarations = Counter(name for _, name, *_ in declared)

    def named(name, own):
        """Whether a caller line other than a declaration names `name`,
        outside the `impl` blocks of `own`."""
        outside = uses[name] - own_uses[own, name]
        return outside > declarations[name] - own_declarations[own, name]

    unnamed = [d for d in declared if not named(d[1], d[5])]
    # A module is used when its name is, or when an item declared in it is
    # used or kept: `rewrite` holds the allowlisted `check_rewrites`.
    live_files = {path for key, name, kind, path, _, own in declared
                  if kind != "mod" and (named(name, own) or key in ALLOWLIST)}

    def holds_live_item(path, name):
        here = path.parent if path.stem in ("lib", "mod") else path.with_suffix("")
        return any(f == here / f"{name}.rs" or here / name in f.parents for f in live_files)

    unused = [(key, f"{path.relative_to(ROOT)}:{number}")
              for key, name, kind, path, number, _ in unnamed
              if kind != "mod" or not holds_live_item(path, name)]

    bad = 0
    for key, where in unused:
        if key in ALLOWLIST:
            print(f"{where}: {key} (test oracle)")
        else:
            print(f"{where}: {key} has no non-test caller", file=sys.stderr)
            bad += 1
    for key in sorted(ALLOWLIST - {key for key, _ in unused}):
        print(f"allowlist entry {key} is no longer reported: remove it", file=sys.stderr)
        bad += 1
    print(f"{len(declared)} pub items, {len(unused)} without a non-test caller", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
