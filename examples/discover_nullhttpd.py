#!/usr/bin/env python3
"""Reproduce the paper's §5.1 discovery of Bugtraq #6255.

The historical workflow, executed live:

1. Model the *known* NULL HTTPD 0.5 heap overflow (#5774) and confirm
   version 0.5.1's fix blocks it.
2. Keep the model's elementary-activity predicates and *probe* the
   0.5.1 implementation against them with the discovery engine.
3. The sweep reports pFSM2 — "length(input) <= size(PostData)" — still
   has no IMPL_REJ: the recv loop's ``||``-for-``&&`` bug.
4. Confirm the finding with a working exploit (valid Content-Length,
   over-long body, GOT(free) hijack), then verify the && fix with the
   same sweep.

Run:  python examples/discover_nullhttpd.py
"""

from repro.apps import NullHttpd, NullHttpdVariant, craft_unlink_body
from repro.core import DiscoveryEngine
from repro.memory import ControlFlowHijack
from repro.models import nullhttpd_model


def step1_known_vulnerability() -> None:
    print("=" * 70)
    print("STEP 1 — the known vulnerability (#5774) and 0.5.1's fix")
    print("=" * 70)
    for variant in (NullHttpdVariant.V0_5, NullHttpdVariant.V0_5_1):
        app = NullHttpd(variant)
        body = craft_unlink_body(app, content_len=-800)
        outcome = app.handle_post(-800, body)
        status = ("overflow" if outcome.accepted and outcome.overflowed
                  else outcome.reason or "clean")
        print(f"  {variant.name}: contentLen=-800 -> {status}")


def step2_probe_the_fixed_version():
    print("\n" + "=" * 70)
    print("STEP 2 — probe 0.5.1 against the model's predicates")
    print("=" * 70)
    activities, domains = nullhttpd_model.discovery_activities(
        NullHttpdVariant.V0_5_1)
    engine = DiscoveryEngine(known_vulnerable=["pFSM1"])
    findings = engine.sweep_probed(nullhttpd_model.OPERATION_1, activities,
                                   domains)
    for finding in findings:
        print(f"  {finding}")
    return findings


def step3_confirm_exploitability() -> None:
    print("\n" + "=" * 70)
    print("STEP 3 — confirm with a working exploit (this became #6255)")
    print("=" * 70)
    app = NullHttpd(NullHttpdVariant.V0_5_1)
    body = craft_unlink_body(app, content_len=100)
    outcome = app.handle_post(100, body)
    print(f"  Content-Length=100, body={len(body)} bytes -> "
          f"copied {outcome.bytes_copied} into a "
          f"{outcome.buffer_size}-byte buffer (overflow={outcome.overflowed})")
    app.free_post_data()
    print(f"  GOT entry of free() consistent? {app.got_free_consistent()}")
    try:
        app.call_free()
    except ControlFlowHijack as hijack:
        print(f"  free() dispatched to Mcode at {hijack.target:#x}")


def step4_verify_fix() -> None:
    print("\n" + "=" * 70)
    print("STEP 4 — the && fix, verified by the same exploit")
    print("=" * 70)
    app = NullHttpd(NullHttpdVariant.FIXED)
    body = craft_unlink_body(app, content_len=100)
    outcome = app.handle_post(100, body)
    print(f"  FIXED: copied {outcome.bytes_copied} of {len(body)} bytes "
          f"(overflow={outcome.overflowed})")
    app.free_post_data()
    print(f"  GOT entry of free() consistent? {app.got_free_consistent()}")


def main() -> None:
    step1_known_vulnerability()
    findings = step2_probe_the_fixed_version()
    assert [f.pfsm_name for f in findings] == ["pFSM2"]
    step3_confirm_exploitability()
    step4_verify_fix()


if __name__ == "__main__":
    main()
