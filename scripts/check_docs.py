#!/usr/bin/env python3
"""Documentation lint: keep the docs honest against the code.

Three checks, all designed to fail when the docs drift:

1. Flags — every ``--flag`` mentioned in docs/CLI.md and docs/RUNBOOK.md
   must appear in the ``--help`` output of the tool it is documented
   under. CLI.md is scoped by its tool headings (``# dcs_collector`` …);
   RUNBOOK.md and CLI.md's preamble are checked against the union of all
   tools' help.
2. Metrics — the ``dcs_*`` names in docs/OBSERVABILITY.md's catalog and
   the string literals in METRIC_SOURCES (the instrument bundles in
   src/obs and the per-instance series the service daemons export next to
   their Stats) must be the *same set*, both directions: an undocumented
   metric fails just like a documented-but-unregistered one.
3. Links — every relative markdown link in README.md and docs/*.md must
   resolve to an existing file, and a ``#anchor`` must match a heading in
   the target (GitHub slug rules).

Usage: scripts/check_docs.py [--build-dir BUILD] [--self-test]

--build-dir (default: ``build``) locates the built tools for check 1.
--self-test deliberately injects one stale flag, one stale metric, one
undocumented service metric, and one broken link into in-memory copies of
the docs and asserts the linter catches all four — proving the checks can
actually fail.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

TOOLS = ("dcs_cli", "dcs_collector", "dcs_agent", "dcs_chaos",
         "dcs_query_server", "dcs_root", "dcs_shardmap")

FLAG_RE = re.compile(r"--[a-zA-Z][a-zA-Z0-9-]*")

# Placeholder spellings used when documenting option *syntax* rather than a
# concrete option ("--name value or --name=value").
PLACEHOLDER_FLAGS = {"--name"}

# Flag-bearing docs: None scope = union of all tools.
FLAG_DOCS = ("docs/CLI.md", "docs/RUNBOOK.md")

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
METRIC_RE = re.compile(r"`(dcs_[a-z0-9_]+)`")
REGISTERED_RE = re.compile(r'"(dcs_[a-z0-9_]+)"')
# Where metric names are registered: src/obs/*.cpp and every src/service
# source, federation included.
METRIC_SOURCES = ("src/obs/*.cpp", "src/service/**/*.cpp")


def fail(errors: list[str], message: str) -> None:
    errors.append(message)


def tool_help(build_dir: pathlib.Path, tool: str) -> str:
    exe = build_dir / "tools" / tool
    if not exe.exists():
        raise FileNotFoundError(
            f"{exe} not built — run cmake --build first or pass --build-dir")
    result = subprocess.run([str(exe), "--help"], capture_output=True,
                            text=True, timeout=30)
    return result.stdout + result.stderr


def doc_flag_scopes(text: str) -> list[tuple[str | None, str]]:
    """Split a doc into (tool-or-None, chunk) by its tool headings."""
    scopes: list[tuple[str | None, str]] = []
    scope: str | None = None
    chunk: list[str] = []
    for line in text.splitlines():
        if line.startswith("#"):
            heading = line.lstrip("#").strip()
            if heading in TOOLS:
                scopes.append((scope, "\n".join(chunk)))
                scope, chunk = heading, []
                continue
        chunk.append(line)
    scopes.append((scope, "\n".join(chunk)))
    return scopes


def check_flags(errors: list[str], build_dir: pathlib.Path,
                docs: dict[str, str]) -> None:
    helps = {tool: set(FLAG_RE.findall(tool_help(build_dir, tool)))
             for tool in TOOLS}
    union = set().union(*helps.values())
    for doc_path, text in docs.items():
        for scope, chunk in doc_flag_scopes(text):
            known = helps[scope] if scope else union
            where = f"{doc_path} (section {scope or 'preamble/global'})"
            for flag in sorted(set(FLAG_RE.findall(chunk))):
                if flag in PLACEHOLDER_FLAGS:
                    continue
                if flag not in known:
                    fail(errors,
                         f"{where}: {flag} not in "
                         f"{scope or 'any tool'} --help output")


def check_metrics(errors: list[str], observability: str) -> None:
    documented = set(METRIC_RE.findall(observability))
    registered: set[str] = set()
    for pattern in METRIC_SOURCES:
        for source in sorted(REPO.glob(pattern)):
            registered |= set(REGISTERED_RE.findall(source.read_text()))
    for name in sorted(documented - registered):
        fail(errors, f"docs/OBSERVABILITY.md: `{name}` documented but not "
                     f"registered in {' or '.join(METRIC_SOURCES)}")
    for name in sorted(registered - documented):
        fail(errors, f"src: \"{name}\" registered but missing from the "
                     f"docs/OBSERVABILITY.md catalog")


def github_slug(heading: str) -> str:
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def heading_slugs(text: str) -> set[str]:
    slugs: set[str] = set()
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence and line.startswith("#"):
            slugs.add(github_slug(line.lstrip("#")))
    return slugs


def check_links(errors: list[str], docs: dict[str, str]) -> None:
    for doc_path, text in docs.items():
        base = (REPO / doc_path).parent
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            resolved = (base / path_part).resolve() if path_part \
                else (REPO / doc_path).resolve()
            if not resolved.exists():
                fail(errors, f"{doc_path}: broken link {target}")
                continue
            if anchor and resolved.suffix == ".md":
                target_text = docs.get(
                    str(resolved.relative_to(REPO)), None)
                if target_text is None:
                    target_text = resolved.read_text()
                if anchor not in heading_slugs(target_text):
                    fail(errors,
                         f"{doc_path}: link {target} — no heading for "
                         f"anchor #{anchor}")


def load_docs() -> dict[str, str]:
    paths = ["README.md"] + sorted(
        str(p.relative_to(REPO)) for p in (REPO / "docs").glob("*.md"))
    return {p: (REPO / p).read_text() for p in paths}


def run_checks(build_dir: pathlib.Path, docs: dict[str, str]) -> list[str]:
    errors: list[str] = []
    check_flags(errors, build_dir,
                {p: docs[p] for p in FLAG_DOCS if p in docs})
    check_metrics(errors, docs["docs/OBSERVABILITY.md"])
    check_links(errors, docs)
    return errors


def self_test(build_dir: pathlib.Path) -> int:
    """Break each check in an in-memory copy and assert it fails."""
    clean = run_checks(build_dir, load_docs())
    if clean:
        print("check_docs --self-test: docs must be clean first:")
        for error in clean:
            print(f"  {error}")
        return 1

    def append(text: str):
        return lambda doc: doc + text

    breaks = {
        "stale flag": ("docs/CLI.md",
                       append("\n# dcs_collector\n\n--no-such-flag\n")),
        "stale metric": ("docs/OBSERVABILITY.md", append(
            "\n| `dcs_bogus_metric_total` | counter | — | x |\n")),
        # A series a collector exports from src/service, dropped from the
        # catalog: proves the service sources are scanned.
        "undocumented service metric": (
            "docs/OBSERVABILITY.md",
            lambda doc: doc.replace("`dcs_root_pending_gap_epochs`", "")),
        "broken link": ("docs/RUNBOOK.md",
                        append("\n[gone](NO_SUCH_FILE.md)\n")),
    }
    failed = 0
    for what, (doc, poison) in breaks.items():
        docs = load_docs()
        docs[doc] = poison(docs[doc])
        if not run_checks(build_dir, docs):
            print(f"check_docs --self-test: {what} NOT caught")
            failed = 1
    if not failed:
        print("check_docs --self-test: all deliberate breaks caught")
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default=str(REPO / "build"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build_dir = pathlib.Path(args.build_dir)

    if args.self_test:
        return self_test(build_dir)

    errors = run_checks(build_dir, load_docs())
    for error in errors:
        print(f"check_docs: {error}")
    if errors:
        print(f"check_docs: {len(errors)} problem(s)")
        return 1
    print("check_docs: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
