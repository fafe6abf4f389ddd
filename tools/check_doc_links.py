#!/usr/bin/env python
"""Check relative markdown links (and their #anchors) in the repo docs.

Scans README.md, EXPERIMENTS.md, DESIGN.md, CHANGES.md, ROADMAP.md and
docs/*.md for inline links ``[text](target)``; external links
(http/https/mailto) are ignored.  For each relative link it verifies the
target exists on disk, and when the link carries a fragment
(``file.md#section`` or the in-file ``#section``) that the target file
has a heading whose GitHub slug matches.

Three structural checks ride along:

- **orphan detection** — every ``docs/*.md`` page must be reachable from
  ``README.md`` by following relative markdown links (a page nothing
  links to is dead documentation);
- **harness-command validation** — every ``python -m repro.harness
  <sub>`` invocation in the docs (code fences included — that's where
  commands live) must name a real subcommand.  The known set is parsed
  *textually* from ``src/repro/harness/__main__.py`` (the
  ``SUBCOMMANDS`` tuple) and ``src/repro/harness/experiments.py`` (the
  ``ALL_EXPERIMENTS`` keys) — no import, because the CI docs-link-check
  job installs no numpy.  When the source tree is absent the check is
  skipped;
- **counter validation** — every name of a checked counter family in
  the docs (code fences included) must exist in that family's
  authoritative tuple, parsed textually from the source
  (:data:`COUNTER_FAMILIES`: ``serve.*`` from ``SERVE_COUNTERS``,
  ``harness.campaign.*`` from ``CAMPAIGN_COUNTER_LEAVES`` and
  ``harness.dist.*`` from ``DIST_COUNTER_LEAVES``).  ``{a,b}``
  shorthand is brace-expanded, any ``[...]`` index normalizes to the
  manifest's ``[*]``, and both ``prefix.*`` wildcards and bare
  namespace references (e.g. ``serve.wire``) are accepted when the
  family has counters under them.  Other dotted names, such as the
  benchmark's per-layer metrics (``harness.isolation.fork_ms.p50``),
  are not counters and are not checked.  A runtime test
  (tests/test_serve.py) keeps the serve manifest itself honest against
  what the service actually registers; the harness registries are
  built from their tuples.

Run:  python tools/check_doc_links.py [repo-root]
Exits nonzero listing every broken link.  CI runs this on each push
(`docs-link-check`), and tests/test_docs_and_api.py runs it in tier-1.
"""

import re
import sys
from pathlib import Path

DOC_GLOBS = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "CHANGES.md",
    "ROADMAP.md",
    "docs/*.md",
]

#: inline links, excluding images; [text](target "title") tolerated
LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
EXTERNAL = ("http://", "https://", "mailto:")

#: a documented harness invocation and its first argument (if any)
HARNESS_RE = re.compile(r"python -m repro\.harness(?:\s+(\S+))?")

#: dispatch targets of ``python -m repro.harness`` that are neither in
#: the SUBCOMMANDS tuple nor ALL_EXPERIMENTS keys
EXTRA_SUBCOMMANDS = {"all", "table1", "diagrams"}


def strip_code_blocks(text):
    """Remove fenced code blocks so literal ``[x](y)`` snippets and
    rendered tables inside ``` fences don't count as links."""
    out, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        out.append("" if fenced else line)
    return "\n".join(out)


def github_slug(heading):
    """GitHub's anchor slug: lowercase, strip punctuation (a dash and
    alphanumerics survive), spaces become dashes."""
    # drop inline code/emphasis markers and links' brackets first
    heading = re.sub(r"[`*_]", "", heading)
    heading = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    slug = []
    for ch in heading.strip().lower():
        if ch.isalnum():
            slug.append(ch)
        elif ch in (" ", "-"):
            slug.append("-")
        # other punctuation: dropped
    return "".join(slug)


def heading_slugs(path):
    """All heading anchors a markdown file exposes (with GitHub's ``-N``
    suffixing for duplicates)."""
    seen, slugs = {}, set()
    text = strip_code_blocks(path.read_text(encoding="utf-8"))
    for line in text.splitlines():
        m = HEADING_RE.match(line)
        if not m:
            continue
        slug = github_slug(m.group(2))
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def check_file(md, root):
    """Yield ``(link, reason)`` for every broken link in ``md``."""
    text = strip_code_blocks(md.read_text(encoding="utf-8"))
    for target in LINK_RE.findall(text):
        if target.startswith(EXTERNAL):
            continue
        path_part, _, fragment = target.partition("#")
        if path_part:
            dest = (md.parent / path_part).resolve()
            if not dest.exists():
                yield target, f"missing file {path_part}"
                continue
        else:
            dest = md
        if fragment:
            if dest.suffix.lower() not in (".md", ".markdown"):
                continue  # anchor into non-markdown: not checkable
            if fragment.lower() not in heading_slugs(dest):
                yield target, (
                    f"no heading for anchor #{fragment} in "
                    f"{dest.relative_to(root)}"
                )


def known_subcommands(root):
    """The set of valid ``python -m repro.harness`` first arguments,
    parsed textually (no import — the CI docs-link-check job installs no
    numpy, so the harness package cannot be imported there).  Returns
    ``None`` when the source tree is absent, meaning "skip the check"."""
    main_py = root / "src" / "repro" / "harness" / "__main__.py"
    exp_py = root / "src" / "repro" / "harness" / "experiments.py"
    if not main_py.exists() or not exp_py.exists():
        return None
    names = set(EXTRA_SUBCOMMANDS)
    m = re.search(r"SUBCOMMANDS\s*=\s*\(([^)]*)\)",
                  main_py.read_text(encoding="utf-8"))
    if m:
        names.update(re.findall(r"\"([^\"]+)\"", m.group(1)))
    m = re.search(r"ALL_EXPERIMENTS\s*=\s*\{([^}]*)\}",
                  exp_py.read_text(encoding="utf-8"))
    if m:
        names.update(re.findall(r"\"([^\"]+)\"\s*:", m.group(1)))
    return names


def check_harness_commands(md, known):
    """Yield ``(snippet, reason)`` for every documented harness
    invocation whose first argument names no real subcommand.  Runs on
    the *raw* text — commands live inside code fences."""
    text = md.read_text(encoding="utf-8")
    for m in HARNESS_RE.finditer(text):
        token = (m.group(1) or "").strip("`'\"),.:;")
        if not token or token.startswith(("-", "<")):
            continue  # bare/--flag/placeholder invocation: nothing to name
        if token not in known:
            yield m.group(0), f"unknown harness subcommand {token!r}"


#: the checked counter families: the name prefix, the source file under
#: ``src/repro`` and the tuple there that lists the family.  Entries of a
#: ``*_LEAVES`` tuple are relative to the prefix; ``SERVE_COUNTERS``
#: lists full names.
COUNTER_FAMILIES = (
    ("serve", "serve/metrics.py", "SERVE_COUNTERS"),
    ("harness.campaign", "harness/runner.py", "CAMPAIGN_COUNTER_LEAVES"),
    ("harness.dist", "harness/dist.py", "DIST_COUNTER_LEAVES"),
)


def known_counters(root):
    """The authoritative names of every counter family whose tuple is
    present, as ``{prefix: names}``, parsed textually (no import — same
    constraint as :func:`known_subcommands`).  A family whose source
    file or tuple is absent is left out, meaning "skip it"."""
    families = {}
    for prefix, rel, tuple_name in COUNTER_FAMILIES:
        path = root / "src" / "repro" / rel
        if not path.exists():
            continue
        # span to the closing paren at line start: inline comments inside
        # the tuple may themselves contain parentheses
        m = re.search(rf"{tuple_name}\s*=\s*\((.*?)\n\)",
                      path.read_text(encoding="utf-8"), re.S)
        if not m:
            continue
        families[prefix] = {
            name if name.startswith(prefix + ".") else f"{prefix}.{name}"
            for name in re.findall(r"\"([^\"]+)\"", m.group(1))
        }
    return families


def _expand_braces(token):
    """``a.{x,y}`` -> ``a.x``, ``a.y`` (recursively)."""
    m = re.search(r"\{([^}]*)\}", token)
    if not m:
        return [token]
    out = []
    for alt in m.group(1).split(","):
        out.extend(_expand_braces(
            token[:m.start()] + alt.strip() + token[m.end():]
        ))
    return out


def check_counters(md, families):
    """Yield ``(snippet, reason)`` for every documented counter of a
    known family (:func:`known_counters`) that its tuple doesn't list.
    Runs on the *raw* text — counter names live inside code fences and
    tables.  A ``prefix.*`` wildcard or a bare namespace
    (``serve.tenant[t]``) passes when the family has counters beneath
    it."""
    known = set().union(*families.values())
    # a name under one of the families, in prose or a code fence; the
    # lookbehind keeps module paths (``repro.serve.core``) and
    # filesystem paths (``/tmp/serve.sock``) from matching
    prefixes = "|".join(re.escape(prefix) for prefix in families)
    name_re = re.compile(rf"(?<![\w./])(?:{prefixes})\.[\w.\[\]{{}},*\-]+")
    text = md.read_text(encoding="utf-8")
    for m in name_re.finditer(text):
        raw = m.group(0).rstrip(".,;:`")
        for token in _expand_braces(raw):
            # any concrete index ([t], [storm]) means the per-tenant
            # wildcard slot in the manifest
            token = re.sub(r"\[[^\]]*\]", "[*]", token)
            if token in known:
                continue
            prefix = token[:-2] if token.endswith(".*") else token
            if any(k.startswith(prefix + ".") or k == prefix
                   for k in known):
                continue
            yield raw, f"unknown counter {token!r}"


def reachable_from_readme(root):
    """Every markdown file reachable from README.md by following
    relative links (resolved paths), code fences excluded."""
    seen = set()
    queue = [(root / "README.md").resolve()]
    while queue:
        md = queue.pop()
        if md in seen or not md.exists():
            continue
        seen.add(md)
        text = strip_code_blocks(md.read_text(encoding="utf-8"))
        for target in LINK_RE.findall(text):
            if target.startswith(EXTERNAL):
                continue
            path_part = target.partition("#")[0]
            if not path_part:
                continue
            dest = (md.parent / path_part).resolve()
            if dest.suffix.lower() in (".md", ".markdown"):
                queue.append(dest)
    return seen


def orphaned_docs(root):
    """``docs/*.md`` pages no link chain from README.md reaches."""
    reached = reachable_from_readme(root)
    return [
        md for md in sorted((root / "docs").glob("*.md"))
        if md.resolve() not in reached
    ]


def main(argv=None):
    """CLI entry point: print broken links, return the count."""
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]).resolve() if argv else Path(__file__).parent.parent
    files = []
    for pattern in DOC_GLOBS:
        files.extend(sorted(root.glob(pattern)))
    broken = 0
    known = known_subcommands(root)
    counters = known_counters(root)
    for md in files:
        for target, reason in check_file(md, root):
            print(f"{md.relative_to(root)}: [{target}] -> {reason}")
            broken += 1
        if known is not None:
            for snippet, reason in check_harness_commands(md, known):
                print(f"{md.relative_to(root)}: [{snippet}] -> {reason}")
                broken += 1
        if counters:
            for snippet, reason in check_counters(md, counters):
                print(f"{md.relative_to(root)}: [{snippet}] -> {reason}")
                broken += 1
    for md in orphaned_docs(root):
        print(f"{md.relative_to(root)}: orphaned — no link chain from "
              "README.md reaches it")
        broken += 1
    print(f"checked {len(files)} files: "
          + ("all links ok" if not broken else f"{broken} problem(s)"))
    return broken


if __name__ == "__main__":
    sys.exit(1 if main() else 0)
