"""``sbo_ray/oracle/`` is test-only: no engine module imports it, so the
row-at-a-time oracle can change without touching the engine it checks.
The SQL gates' one input besides the shards is ``synth``'s line view."""

import ast
import os
import pathlib
import re

import pyarrow.parquet as pq

import sbo_ray
from sbo_ray import synth

PKG = pathlib.Path(sbo_ray.__file__).parent


def _imported(path: pathlib.Path):
    """Every absolute module name an import statement anywhere in
    ``path`` names (nested imports included, relative ones resolved),
    plus ``module.name`` for each name of a from-import."""
    pkg = path.relative_to(PKG.parent).with_suffix("").parts[:-1]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = list(pkg[:len(pkg) - node.level + 1]) if node.level else []
            mod = ".".join(base + (node.module.split(".") if node.module else []))
            yield mod
            yield from (f"{mod}.{a.name}" for a in node.names)


def test_engine_does_not_import_oracle():
    # the walker resolves relative and function-level imports
    assert "sbo_ray.exchange" in set(_imported(PKG / "stages" / "compat.py"))
    assert "sbo_ray.stages.route._truncate" in set(
        _imported(PKG / "stages" / "metrics.py"))
    bad = [
        (str(path.relative_to(PKG)), name)
        for path in sorted(PKG.rglob("*.py"))
        if path.relative_to(PKG).parts[0] != "oracle"
        for name in _imported(path)
        if name == "sbo_ray.oracle" or name.startswith("sbo_ray.oracle.")
    ]
    assert bad == []


def test_engine_has_no_star_imports():
    """Each module imports what it uses by name from the module that
    defines it: a star-import hides where a name comes from and makes
    the imported module's whole namespace part of the importer's."""
    bad = [
        (str(path.relative_to(PKG)), name)
        for path in sorted(PKG.rglob("*.py"))
        for name in _imported(path)
        if name.endswith(".*")
    ]
    assert bad == []


def test_line_view_is_the_synth_lines(tmp_path, monkeypatch):
    monkeypatch.setattr(synth, "ensure_input", lambda sf_dir: str(tmp_path))
    monkeypatch.setattr(synth, "_sf_rows", lambda sf_dir: 300)
    assert synth.ensure_line_view("sf") == str(tmp_path)
    path = tmp_path / "lines.parquet"
    doc_ids, lines, sources = synth.synth_lines(
        300, seed=synth.SEED_DEFAULT, n_sources=synth.N_SOURCES)
    assert pq.read_table(path).to_pydict() == {
        "doc_id": doc_ids, "line": lines, "source": sources}
    before = os.stat(path).st_mtime_ns
    synth.ensure_line_view("sf")  # idempotent: an existing view is kept
    assert os.stat(path).st_mtime_ns == before
    assert sorted(os.listdir(tmp_path)) == ["lines.parquet"]


def test_engine_reads_no_environment():
    """Deployment settings are the cli's (``SBO_RAY_ADDRESS``,
    ``RAY_GRAFT_CPUS``): nothing else under ``sbo_ray/`` reads the
    environment, so an op's behaviour follows its arguments and the Ray
    session alone."""
    names = {"environ", "getenv", "environb", "getenvb"}
    bad = sorted(
        (str(path.relative_to(PKG)), node.lineno)
        for path in PKG.rglob("*.py")
        if path.relative_to(PKG).parts != ("cli.py",)
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.alias) and node.name in names)
    )
    assert bad == []
    cli = ast.parse((PKG / "cli.py").read_text())
    assert any(isinstance(n, ast.Attribute) and n.attr == "environ"
               for n in ast.walk(cli))


def test_source_codes_is_the_one_dictionary_encode():
    """``queries._source_codes`` is the one place ``queries.py`` encodes
    a block's sources: the count, sketch, pack and screen partials take
    the dictionary and codes from it instead of restating the encode."""
    tree = ast.parse((PKG / "pipelines" / "queries.py").read_text())
    sites = sorted(
        top.name if isinstance(top, ast.FunctionDef) else "<module>"
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        == "dictionary_encode"
    )
    assert sites == ["_source_codes"]


def test_no_combine_chunks_idiom():
    """A column becomes one Array through ``codec.one_array``, which
    shares a ChunkedArray's only chunk; the hand-written ``combine_chunks()
    if isinstance(x, pa.ChunkedArray)`` idiom (inline or as an if-block)
    copies even one chunk."""
    inline = re.compile(r"combine_chunks\(\)\s*(?:\\\s*)?if\s+isinstance\(")
    block = re.compile(r"if isinstance\((\w+), pa\.ChunkedArray\):\n"
                       r"\s+\1 = \1\.combine_chunks\(\)")
    bad = [str(path.relative_to(PKG))
           for path in sorted(PKG.rglob("*.py"))
           for src in [path.read_text()]
           if inline.search(src) or block.search(src)]
    assert bad == []
