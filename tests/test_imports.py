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

import repro

_SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def run_fresh(code):
    """Run ``code`` in a new interpreter importing ``repro`` from this
    tree; return the JSON its last output line prints."""
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
    for name in ("networkx", "repro.bugtraq", "repro.defenses"):
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
