"""Seeded inputs for the benchmark workloads, with their expected findings.

The bundled paper corpus (the 13 models and their probe domains, tiled)
is checked against the reference scalar scan ``pfsm.takes_hidden_path``
over every object, computed outside the engine under test.

A finding is ``(model, operation, pfsm, witnesses)``; findings are listed
in model order, then cascade order, exactly as ``sweep_models`` returns
them.
"""

from repro.core import Domain
from repro.models import all_extended_models, all_extended_pfsm_domains


def reference_findings(models, domains):
    """Findings by the reference scalar scan: every domain object judged
    with ``pfsm.takes_hidden_path``."""
    found = []
    for label, model in models.items():
        model_domains = domains.get(label, {})
        for operation, pfsm in model.all_pfsms():
            domain = model_domains.get(pfsm.name)
            if domain is None:
                continue
            witnesses = [x for x in domain if pfsm.takes_hidden_path(x)]
            if witnesses:
                found.append((model.name, operation.name, pfsm.name,
                              tuple(witnesses)))
    return found


def tiled_bundled(tile):
    """The 13 bundled models with every probe domain repeated ``tile``
    times by reference — a corpus that re-probes the same objects, the
    per-scan identity memo's case — and their expected findings: each
    domain's base witnesses, repeated ``tile`` times."""
    models = all_extended_models()
    base = all_extended_pfsm_domains()
    domains = {label: {name: Domain(list(dom) * tile,
                                    description="tiled probes")
                       for name, dom in per_model.items()}
               for label, per_model in base.items()}
    truth = [(model, operation, pfsm, witnesses * tile)
             for model, operation, pfsm, witnesses
             in reference_findings(models, base)]
    return models, domains, truth
