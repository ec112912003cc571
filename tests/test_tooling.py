"""Repository rules: the benchmark harness finds every function it traces,
and the library states its checks as explicit raises."""

import ast
import gc
import importlib
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_perfbench(name):
    """perfbench/<name>.py as a module, registered (dataclasses look their
    module up in sys.modules)."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load_perfbench("tracer")


def test_tracer_targets_resolve():
    missing = []
    for name, module_name, path in _load_tracer().TARGETS:
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            # looked up in vars(), as the tracer does: inherited names miss
            obj = vars(obj).get(part) if obj is not None else None
        if not callable(obj):
            missing.append((name, module_name, path))
    assert not missing


# The per-layer metrics each small traced workload reports as zero: a span
# name stands for all of its metrics, a full metric name for itself.
ZERO_METRICS = {
    "charsum": ("analysis.kernel_check", "analysis.lemma_diag_check", "cyclo.inverse",
                "cyclo.mul", "cyclo.norm_sq", "cycmat.kron", "cycmat.matmul",
                "cycmat.max_entry_bits", "cycmat.to_ring", "decompose.commutant_dimension",
                "decompose.crt_check", "decompose.egorov_verify",
                "decompose.isotypic_projectors", "decompose.tower_check", "modgroup.census",
                "modgroup.sl2_enumerate", "modgroup.word_decompose",
                "ringmat.equal_up_to_scalar", "weilrep.generator", "weilrep.lift",
                "weilrep.projective_key"),
    "faithful": ("analysis.char_sum", "cyclo.inverse", "cycmat.kron", "cycmat.matmul",
                 "cycmat.to_ring", "decompose.commutant_dimension", "decompose.crt_check",
                 "decompose.egorov_verify", "decompose.isotypic_projectors",
                 "decompose.tower_check", "modgroup.census", "modgroup.class_representatives",
                 "ringmat.equal_up_to_scalar", "weilrep.generator", "weilrep.projective_key",
                 "weilrep.trace"),
    "certify": ("analysis.char_sum", "analysis.kernel_check", "analysis.lemma_diag_check",
                "cyclo.inverse", "cyclo.mul", "cyclo.norm_sq", "cycmat.kron", "cycmat.matmul",
                "cycmat.max_entry_bits", "cycmat.to_ring", "decompose.isotypic_projectors",
                "modgroup.class_representatives", "modgroup.sl2_enumerate",
                "modgroup.word_decompose", "ringmat.equal_up_to_scalar", "weilrep.generator",
                "weilrep.lift", "weilrep.projective_key", "weilrep.trace"),
}


def test_small_workloads_pass_plain_and_traced():
    # every certificate of each small benchmark workload returns True, once
    # plain and once traced, and the traced round reports every per-layer
    # metric: a broken workload API, or a renamed cache the tracer reads,
    # fails here before it fails the benchmark.  The metrics it reports as
    # zero are pinned: a change that stops (or starts) reaching a traced
    # function fails here, not only in a hand-run benchmark self-test
    workloads, tracer = _load_perfbench("workloads"), _load_tracer()
    assert set(ZERO_METRICS) == set(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        certs = [cert for unit in workloads.build(workload, 1, small=True) for cert in unit]
        trace = tracer.Tracer()
        for traced in (False, True):
            _clear_library_caches()
            if traced:
                trace.install()
            try:
                failed = [cert.name for cert in certs if cert.run() is not True]
            finally:
                trace.uninstall()
            assert not failed, (workload, traced)
        metrics = trace.collect()
        assert set(metrics) == set(tracer.METRICS) - {"trace.wall_s", "trace.overhead_s"}
        zero = {name for name in metrics for pinned in ZERO_METRICS[workload]
                if pinned in (name, name.rpartition(".")[0])}
        assert {name for name, value in metrics.items() if not value} == zero, workload


def test_package_exports_exactly_its_imports():
    # `weildec.__all__` is the set of names `__init__.py` imports, each
    # once, and each resolves: a trimmed export cannot linger in __all__
    import weildec

    init = ROOT / "src" / "weildec" / "__init__.py"
    imported = [alias.asname or alias.name
                for node in ast.walk(ast.parse(init.read_text(), str(init)))
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(weildec.__all__) == sorted(set(imported)) == sorted(imported)
    assert all(getattr(weildec, name, None) is not None for name in weildec.__all__)


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so every check in the library
    # must be an explicit raise
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "weildec").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found


def test_library_imports_are_used():
    # a name a module imports but never reads is a stale import, left
    # behind when the code that used it was deleted
    unused = []
    for path in sorted((ROOT / "src" / "weildec").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused


def _top_level_names(path):
    """Names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_private_imports_come_from_their_definitions():
    # a private name that a module takes with `from .X import _name` is
    # defined in X itself: a kernel that moved cannot stay reachable
    # through the module that used to hold it
    src = ROOT / "src" / "weildec"
    stray = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                defined = _top_level_names(src / f"{node.module}.py")
                stray += [f"{path.name}:{node.lineno} {alias.name} from .{node.module}"
                          for alias in node.names
                          if alias.name.startswith("_") and alias.name not in defined]
    assert not stray


def _library_defs_and_reads():
    """Every function def of the library as (label, node, top level), and
    for each name the defs that enclose each place the library reads it."""
    defs, refs = [], {}
    for path in sorted((ROOT / "src" / "weildec").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, inside):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((f"{path.name}:{node.lineno} {node.name}", node, node in tree.body))
                inside = inside + (node,)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                refs.setdefault(name, []).append(inside)
            for child in ast.iter_child_nodes(node):
                visit(child, inside)
        visit(tree, ())
    return defs, refs


def test_private_functions_are_referenced():
    # a private function or method that the library reads nowhere outside
    # its own def is a helper left behind when its callers changed
    defs, refs = _library_defs_and_reads()
    unread = [label for label, node, _top in defs
              if node.name.startswith("_") and not node.name.endswith("__")
              and all(node in inside for inside in refs.get(node.name, []))]
    assert not unread


def test_public_functions_have_a_reader():
    # a public module-level function that the library reads nowhere outside
    # its own def, that `weildec` does not export and that the benchmark's
    # tracer does not wrap is read only by the tests: it belongs there, as
    # an oracle
    import weildec

    defs, refs = _library_defs_and_reads()
    named = set(weildec.__all__) | {path for _name, _module, path in _load_tracer().TARGETS}
    unread = [label for label, node, top in defs
              if top and not node.name.startswith("_") and node.name not in named
              and all(node in inside for inside in refs.get(node.name, []))]
    assert not unread


def _clear_library_caches():
    for name, module in list(sys.modules.items()):
        if name == "weildec" or name.startswith("weildec."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_cold_certificates_leave_no_cyclic_garbage():
    # a cache_clear must free the fields and matrices by reference counting
    # alone: objects kept only by a reference cycle (a field holding
    # elements that point back at it) wait for a full cyclic collection
    from weildec.cycmat import CycMat
    from weildec.cyclo import CycloElt, CycloField
    from weildec.decompose import commutant_dimension, tower_check

    _clear_library_caches()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        tower_check(3, 1)
        commutant_dimension(9)
        _clear_library_caches()
        gc.collect()
        cyclic = [type(obj).__name__ for obj in gc.garbage
                  if isinstance(obj, (CycloField, CycloElt, CycMat))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not cyclic


# traced peak (MiB) of a cold char_sum when the sweep made one gather per
# u-block and per census element; the batched sweep caps each gather at
# cycmat._GATHER_ENTRIES int64 entries (512 KiB), so it may add about two
# such chunks, 1 MiB, and no more
_CHAR_SUM_PEAK_MIB = {16: 0.22, 32: 0.99, 45: 3.85}


@pytest.mark.parametrize("p", sorted(_CHAR_SUM_PEAK_MIB))
def test_cold_char_sum_stays_in_its_memory_budget(p):
    from weildec.analysis import char_sum

    _clear_library_caches()
    tracemalloc.start()
    try:
        assert char_sum(p).match
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (_CHAR_SUM_PEAK_MIB[p] + 1) * 2**20


def test_integer_certificates_make_no_field_call(monkeypatch):
    # the Egorov rules and the parity flip compare integer exponents, with
    # no entry-vector comparison and no cyclotomic field at all; the CRT
    # check makes one, its factor identity, per tag
    from weildec import decompose
    from weildec.cyclo import CycloField
    from weildec.weilrep import WeilRep

    calls = []

    def spy(name):
        real = getattr(decompose, name)

        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted

    def no_field(self, level):
        raise AssertionError("Q(zeta_%d) built" % level)

    for name in ("field_coords", "_array_is_zero"):
        monkeypatch.setattr(decompose, name, spy(name))
    # WeilRep builds its field on first use, and these three never use it
    _clear_library_caches()
    with monkeypatch.context() as patch:
        patch.setattr(CycloField, "__init__", no_field)
        assert decompose.commutant_dimension(8, 2) == 3
        assert all(report.ok for report in decompose.egorov_verify(5, 2))
        assert decompose.parity_bases(5, 2).dims == (13, 12)
    assert calls == []
    assert decompose.crt_check(4, 3).passed
    tags = len(WeilRep(12, 1).tags())
    assert calls.count("field_coords") <= tags and calls.count("_array_is_zero") <= tags
    # the tower makes exactly one, G E = E G_U; the complement is the
    # entry check `_symmetric`
    for r, n, g in ((3, 1, 1), (2, 1, 2)):
        calls.clear()
        assert decompose.tower_check(r, n, g).passed
        tags = len(WeilRep(r ** (n + 2), g).tags())
        assert calls.count("_array_is_zero") == tags and calls.count("field_coords") <= tags


@pytest.mark.parametrize("p,g", [(4, 1), (5, 2), (3, 3)])
def test_rule_checks_make_two_schrodinger_maps(monkeypatch, p, g):
    # every rule of a WeilRep is checked in one pass: one Schrodinger map
    # at the 2g unit vectors and one at the stacked columns M e_i of all
    # rules, however many tags and basis vectors there are
    from weildec import decompose
    from weildec.weilrep import WeilRep

    calls = []
    real = WeilRep.schrodinger_map

    def counted(self, vecs):
        calls.append(vecs.shape)
        return real(self, vecs)

    monkeypatch.setattr(WeilRep, "schrodinger_map", counted)
    tags = len(WeilRep(p, g).tags())
    assert all(report.ok for report in decompose.egorov_verify(p, g))
    assert calls == [(2 * g, 2 * g), (2 * g, tags * 2 * g)]
    calls.clear()
    assert decompose.commutant_dimension(p, g) >= 1
    assert calls == [(2 * g, 2 * g), (2 * g, tags * 2 * g)]


def _traced_peak(run):
    """Traced peak (bytes) of run() from cold caches; run must return True."""
    _clear_library_caches()
    tracemalloc.start()
    try:
        assert run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cold_faithfulness_checks_stay_in_their_memory_budget():
    # the lifts and the checks go in chunks of cycmat._GATHER_ENTRIES
    # int64 entries (512 KiB).  kernel_check(7) keeps one key per element,
    # a p^2 x deg(field) int64 block each (6.0 MiB), and works in at most
    # four chunks on top (measured 6.7 MiB in all); lemma_diag_check(6)
    # takes word products at level 32, where one product is one chunk and
    # its gathers, windows and normalisations hold about ten (measured
    # 4.0 MiB).
    # Lifting the whole group, or every odd a, at once took 15 and 39 MiB.
    from weildec import analysis, cycmat
    from weildec.cyclo import field_for_level

    chunk = cycmat._GATHER_ENTRIES * 8
    keys = 336 * 7 * 7 * field_for_level(7).degree * 8
    assert _traced_peak(lambda: analysis.kernel_check(7).injective) < keys + 4 * chunk
    assert _traced_peak(lambda: analysis.lemma_diag_check(6)) < 12 * chunk


# traced peak (MiB) of a cold commutant_dimension(128, 1) on integer
# generator exponents, measured at 4.3; the budget adds 2 MiB.  Entry
# vectors of length m (the p x p x m Y block and the rolled gathers of the
# rule check) took it to 163.7.
_COMMUTANT_128_PEAK_MIB = 4.3


def test_cold_commutant_stays_in_its_memory_budget():
    from weildec.decompose import commutant_dimension

    _clear_library_caches()
    tracemalloc.start()
    try:
        assert commutant_dimension(128, 1) == 7
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (_COMMUTANT_128_PEAK_MIB + 2) * 2**20


# traced peak (MiB) of a cold census(8), measured at 1.89; the budget adds
# 0.5 MiB.  The whole-group sweep, one row value a at a time in chunks of
# N^2 = 2^16 elements, peaked at 7.37; the l = 0 elements are now counted
# by trace and the Gamma(2) sweep goes in blocks of at most 2^14 elements.
_CENSUS_8_PEAK_MIB = 1.89


def test_cold_census_stays_in_its_memory_budget():
    from weildec.modgroup import census

    peak = _traced_peak(lambda: all(row.match for row in census(8)))
    assert peak < (_CENSUS_8_PEAK_MIB + 0.5) * 2**20
