"""Import surface: ``import repro`` loads only what its caller runs.

Each check runs in a fresh interpreter, because this test process has
long since imported every package.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro

_SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def run_fresh(code, numpy=False):
    """Run ``code`` in a new interpreter importing ``repro`` from this
    tree; return the JSON its last output line prints.  ``numpy=True``
    skips the test where numpy is missing or bypassed."""
    if numpy:
        pytest.importorskip("numpy")
        if os.environ.get("REPRO_NO_NUMPY", "") not in ("", "0"):
            pytest.skip("numpy bypassed by REPRO_NO_NUMPY")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.splitlines()[-1])


def test_import_repro_loads_no_subpackage():
    loaded = run_fresh("""
        import json, sys
        import repro
        print(json.dumps(sorted(m for m in sys.modules
                                if m.startswith("repro."))))
    """)
    assert loaded == []


def test_serving_corpus_needs_no_networkx_bugtraq_or_defenses():
    loaded = run_fresh("""
        import json, sys
        import repro.serve, repro.models
        corpus = repro.serve.AnalysisCorpus()
        assert corpus.keys()
        print(json.dumps(sorted(sys.modules)))
    """)
    for name in ("networkx", "repro.bugtraq", "repro.defenses",
                 "repro.claims"):
        assert name not in loaded, name


def test_every_public_name_resolves_and_is_listed():
    result = run_fresh("""
        import json
        import repro
        names = [n for n in repro.__all__ if getattr(repro, n) is None]
        print(json.dumps({"unresolved": names,
                          "unlisted": sorted(set(repro.__all__)
                                             - set(dir(repro)))}))
    """)
    assert result == {"unresolved": [], "unlisted": []}


def test_star_import_binds_all_and_unknown_names_raise():
    result = run_fresh("""
        import json, types
        import repro
        namespace = {}
        exec("from repro import *", namespace)
        missing = [n for n in repro.__all__ if n not in namespace]
        try:
            repro.no_such_package
        except AttributeError as exc:
            error = str(exc)
        else:
            error = None
        print(json.dumps({"missing": missing,
                          "serve": isinstance(namespace["serve"],
                                              types.ModuleType),
                          "version": namespace["__version__"],
                          "error": error}))
    """)
    assert result["missing"] == []
    assert result["serve"] is True
    assert result["version"] == repro.__version__
    assert "no_such_package" in result["error"]


def test_state_space_imports_networkx_on_first_use():
    result = run_fresh("""
        import json, sys
        from repro.core import build_state_space
        from repro.models import sendmail_model
        before = "networkx" in sys.modules
        space = build_state_space(sendmail_model.build_model())
        print(json.dumps({"before": before,
                          "after": "networkx" in sys.modules,
                          "reachable": space.compromise_reachable()}))
    """)
    assert result == {"before": False, "after": True, "reachable": True}


def test_serving_tiled_corpus_scans_columnar_without_numpy():
    # The bundled corpus with each probe domain tiled 40x by reference
    # (the serve benchmark's corpus).  A columnar encoding holds a
    # domain's distinct objects, at most 54 here: below ``_MIN_ROWS``,
    # so by default every scan runs compiled.  Forced onto columnar,
    # every encoding stays far below ``_NUMPY_MIN_ROWS``, so its scans
    # run on stdlib masks.  The forced pass serves fresh models, whose
    # programs have no verdict table yet, so it computes the masks.
    result = run_fresh("""
        import json, sys
        from repro import obs
        from repro.core import Domain, columnar
        from repro.models import all_extended_models, all_extended_pfsm_domains
        from repro.serve import AnalysisCorpus
        from repro.serve.batcher import _engine_compute

        domains = {label: {name: Domain(list(dom) * 40)
                           for name, dom in per_model.items()}
                   for label, per_model
                   in all_extended_pfsm_domains().items()}
        registry = obs.get_registry()
        registry.enable()

        def serve_all():
            corpus = AnalysisCorpus(models=all_extended_models(),
                                    domains=domains)
            registry.reset()
            answered = 0
            for key in corpus.keys():
                query = corpus.expand(key, 1000)
                found = _engine_compute(list(query.tasks),
                                        list(query.task_keys))
                answered += any(found)
            counters = registry.counters()
            return answered, [counters.get("sweep.scans.columnar", 0),
                              counters.get("sweep.objects.judged", 0)]

        answered, default = serve_all()
        columnar.set_min_rows(1)
        forced_answered, forced = serve_all()
        print(json.dumps({
            "answered": [answered, forced_answered],
            "columnar": [default, forced],
            "numpy": "numpy" in sys.modules,
            "apps": sorted(m for m in sys.modules
                           if m.startswith("repro.apps.")),
        }))
    """)
    answered, forced_answered = result["answered"]
    assert answered > 0 and forced_answered == answered
    (default, judged), (forced, masked) = result["columnar"]
    assert default == 0
    assert forced > 0
    # A mask judges every distinct object of its domain: at least what
    # the compiled pass judged, none of it read from a table.
    assert masked >= judged > 0
    assert result["numpy"] is False
    assert result["apps"] == ["repro.apps.freebsd_syscall", "repro.apps.iis",
                              "repro.apps.nullhttpd",
                              "repro.apps.rsync_daemon"]


def test_serving_never_loads_the_sweep_transport():
    # Serving computes inline: neither the cluster transport nor the
    # stdlib's process pool is imported to answer a query.
    result = run_fresh("""
        import json, sys
        from repro.serve import AnalysisCorpus
        from repro.serve.batcher import _engine_compute

        corpus = AnalysisCorpus()
        query = corpus.expand(corpus.keys()[0], 5)
        found = _engine_compute(list(query.tasks), list(query.task_keys))
        print(json.dumps({
            "answered": len(found),
            "loaded": sorted(m for m in sys.modules
                             if m.startswith("repro.cluster")
                             or m == "concurrent.futures.process"),
        }))
    """)
    assert result["answered"] > 0
    assert result["loaded"] == []


def test_serving_a_query_never_imports_asyncio():
    # The server answers on blocking threads: starting it, answering a
    # query over the wire and draining it loads no event loop.
    result = run_fresh("""
        import json, sys, threading
        from repro.core import (Domain, Operation, PrimitiveFSM,
                                VulnerabilityModel, in_range, less_equal)
        from repro.serve import (AnalysisCorpus, ServeClient, ServeConfig,
                                 ServerThread)

        pfsm = PrimitiveFSM("p", "scan", "x", spec_accepts=in_range(0, 5),
                            impl_accepts=less_equal(10))
        model = VulnerabilityModel("M", [Operation("op", "x", [pfsm])])
        corpus = AnalysisCorpus(models={"M": model},
                                domains={"M": {"p": Domain(range(-5, 20))}},
                                keys={"m": "M"})
        handle = ServerThread(ServeConfig(port=0), corpus=corpus).start()
        with ServeClient(handle.host, handle.port) as client:
            response = client.query("m", limit=3)
        handle.shutdown()
        print(json.dumps({
            "status": response["status"],
            "asyncio": sorted(m for m in sys.modules
                              if m.split(".")[0] == "asyncio"),
            "threads": [t.name for t in threading.enumerate()],
        }))
    """)
    assert result == {"status": "ok", "asyncio": [],
                      "threads": ["MainThread"]}


def test_numpy_sized_domain_scans_with_numpy_masks():
    result = run_fresh("""
        import json, sys
        from repro import obs
        from repro.core import (Domain, PrimitiveFSM, attr, columnar,
                                hidden_witness_scan, in_range, length_le,
                                less_equal, satisfies_all)

        def records(n):
            return Domain([{"size": i % 1000, "name": "n" * (i % 9)}
                           for i in range(n)])

        pfsm = PrimitiveFSM(
            "p", "scan", "r",
            spec_accepts=satisfies_all(attr("size", in_range(0, 900)),
                                       attr("name", length_le(6))),
            impl_accepts=attr("size", less_equal(950)))
        rows = columnar._NUMPY_MIN_ROWS
        obs.enable()
        below = records(rows - 1)
        hidden_witness_scan(pfsm, below, limit=5)
        small = {"backend": columnar.encoding_for(below).ops.name,
                 "numpy": "numpy" in sys.modules}
        domain = records(rows)
        found = hidden_witness_scan(pfsm, domain, limit=10**9)
        with columnar.disabled():
            expected = hidden_witness_scan(pfsm, domain, limit=10**9)
        print(json.dumps({
            "rows": rows,
            "small": small,
            "backend": columnar.encoding_for(domain).ops.name,
            "numpy": "numpy" in sys.modules,
            "encodings": {name: n for name, n in obs.counters().items()
                          if name.startswith("columnar.encodings.")},
            "equal": found == expected and len(found) > 0,
        }))
    """, numpy=True)
    assert result["rows"] == 1 << 14
    assert result["small"] == {"backend": "stdlib", "numpy": False}
    assert result["backend"] == "numpy"
    assert result["numpy"] is True
    assert result["encodings"] == {"columnar.encodings.stdlib": 1,
                                   "columnar.encodings.numpy": 1}
    assert result["equal"] is True


def test_process_sweep_never_loads_shared_memory():
    # Forked workers scan the domain they inherit: a process sweep over
    # a numpy-sized record domain publishes no column anywhere.
    result = run_fresh("""
        import json, sys
        from repro.core import (Domain, PrimitiveFSM, attr, columnar, dist,
                                hidden_witness_scan, in_range, less_equal)

        domain = Domain([{"size": i % 1000}
                         for i in range(columnar._NUMPY_MIN_ROWS)])
        pfsm = PrimitiveFSM("p", "scan", "r",
                            spec_accepts=attr("size", in_range(0, 900)),
                            impl_accepts=attr("size", less_equal(950)))
        [finding] = dist.run_tasks([("m", "op", pfsm, domain, 5)], 2,
                                   backend="process")
        with columnar.disabled():
            expected = hidden_witness_scan(pfsm, domain, limit=5)
        print(json.dumps({
            "rows": len(domain),
            "equal": list(finding.witnesses) == expected,
            "loaded": "multiprocessing.shared_memory" in sys.modules,
        }))
    """)
    assert result["rows"] == 1 << 14
    assert result["equal"] is True
    assert result["loaded"] is False


def test_apps_names_resolve_lazily():
    result = run_fresh("""
        import json, sys
        import repro.apps as apps
        loaded = sorted(m for m in sys.modules
                        if m.startswith("repro.apps."))
        unresolved = [n for n in apps.__all__ if getattr(apps, n) is None]
        namespace = {}
        exec("from repro.apps import *", namespace)
        try:
            apps.no_such_app
        except AttributeError as exc:
            error = str(exc)
        else:
            error = None
        print(json.dumps({
            "count": len(apps.__all__),
            "loaded_at_import": loaded,
            "unresolved": unresolved,
            "missing": [n for n in apps.__all__ if n not in namespace],
            "unlisted": sorted(set(apps.__all__) - set(dir(apps))),
            "aliases": [apps.make_env_world.__module__,
                        apps.make_rwall_world.__module__],
            "error": error,
        }))
    """)
    assert result["count"] == 65
    assert result["loaded_at_import"] == []
    assert result["unresolved"] == []
    assert result["missing"] == []
    assert result["unlisted"] == []
    assert result["aliases"] == ["repro.apps.envutil", "repro.apps.rwalld"]
    assert "no_such_app" in result["error"]
