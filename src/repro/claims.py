"""The paper's claims, each asserted in one place.

One :class:`Claim` per row of DESIGN.md §4 ("Experiment index"): the
fourteen paper artifacts (Figures 1-8, Tables 1-2, the §1 22% share,
the §5.1 discovery of Bugtraq #6255, the §6 Lemma and the two [21]
case studies) and the six extension experiments.  A claim is a list of
named :class:`Part` checks (a figure's traversal, its executable
exploit, its fix matrix; the Lemma and the state space per model); each
regenerates its share of the artifact and returns the rows of its
table, and when the artifact differs from the paper it raises
:class:`ClaimFailed` with a message naming the mismatch.
``Claim.check`` runs the parts in order.  Checks raise explicitly
rather than ``assert``, so ``python -O`` still checks.

``tests/test_claims.py`` runs every part in the tier-1 suite, and
``python examples/verify_reproduction.py`` prints each one with its
table.  Nothing else in the package imports this module.
"""

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List

from .apps import (
    FreebsdKernel,
    FreebsdVariant,
    Ghttpd,
    GhttpdVariant,
    Icecast,
    IcecastVariant,
    IisServer,
    IisVariant,
    NullHttpd,
    NullHttpdVariant,
    RpcStatd,
    RsyncDaemon,
    RsyncVariant,
    RwallDaemon,
    RwallVariant,
    Sendmail,
    SendmailVariant,
    Splitvt,
    SplitvtVariant,
    StatdVariant,
    WuFtpd,
    WuFtpdVariant,
    XtermVariant,
    add_utmp_entry,
    build_race_scheduler,
    craft_cred_overwrite,
    craft_expansion_smash,
    craft_format_exploit,
    craft_got_exploit,
    craft_handler_overwrite,
    craft_negative_opcode,
    craft_site_exec_exploit,
    craft_stack_smash,
    craft_unlink_body,
    make_rwall_world,
    passwd_corrupted,
)
from .bugtraq import (
    BUFFER_OVERFLOW_CHAIN,
    FIGURE1_PERCENTAGES,
    FORMAT_STRING_TRIO,
    TABLE1_REPORTS,
    TOTAL_REPORTS,
    BugtraqDatabase,
    corpus_report,
    dominant_categories,
    figure1_breakdown,
    studied_family_share,
    table1_ambiguity,
)
from .core import (
    BugtraqCategory,
    DiscoveryEngine,
    Domain,
    PfsmType,
    PrimitiveFSM,
    StateKind,
    TransitionKind,
    WeightedDomain,
    build_state_space,
    check_lemma_part1,
    check_lemma_part2,
    compromise_probability,
    hidden_path_report,
    in_range,
    less_equal,
    mean_effort_to_foil,
    minimal_foil_points,
    model_fingerprint,
    render_model,
    render_pfsm,
    verify_lemma,
)
from .core.statespace import StateSpace
from .memory import (
    AddressSpace,
    CallStack,
    ControlFlowHijack,
    Heap,
    HeapCorruptionDetected,
    Process,
    Region,
    WORD_SIZE,
    measure_detection_coverage,
)
from .models import (
    TABLE2_EXPECTED,
    all_benign_inputs,
    all_exploit_inputs,
    all_extended_benign_inputs,
    all_extended_exploit_inputs,
    all_extended_models,
    all_extended_pfsm_domains,
    all_operation_domains,
    all_paper_models,
    ghttpd_model,
    iis_model,
    nullhttpd_model,
    rpc_statd_model,
    rwall_model,
    sendmail_model,
    table2_grid,
    xterm_model,
)
from .osmodel import User

__all__ = ["CLAIMS", "Claim", "ClaimFailed", "Part"]


class ClaimFailed(Exception):
    """A regenerated artifact differs from the paper's."""


@dataclass(frozen=True)
class Part:
    """One named group of a claim's assertions, with its table rows."""

    name: str
    check: Callable[[], List[str]]


@dataclass(frozen=True)
class Claim:
    id: str
    title: str
    parts: List[Part] = field(default_factory=list)

    def check(self) -> List[str]:
        """Run every part; the claim's table rows, part by part.

        A failing part's :class:`ClaimFailed` is re-raised with the
        part's name in front of the mismatch.
        """
        rows: List[str] = []
        for part in self.parts:
            try:
                rows += part.check()
            except ClaimFailed as failure:
                raise ClaimFailed(f"{part.name}: {failure}") from None
        return rows


CLAIMS: List[Claim] = []


def _claim(claim_id: str, title: str) -> None:
    """Open a claim; the :func:`_part` checks that follow belong to it."""
    CLAIMS.append(Claim(claim_id, title))


def _part(name: str):
    def register(check):
        CLAIMS[-1].parts.append(Part(name, check))
        return check
    return register


def _slug(label: str) -> str:
    """A model label as a part name: ``rpc.statd Format ...`` ->
    ``rpc-statd-format-...``."""
    return re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-")


def _expect(ok, message: str) -> None:
    if not ok:
        raise ClaimFailed(message)


def _equal(what: str, actual, expected) -> None:
    if actual == expected:
        return
    if isinstance(actual, dict) and isinstance(expected, dict):
        diff = {key: (actual.get(key), expected.get(key))
                for key in set(actual) | set(expected)
                if actual.get(key) != expected.get(key)}
        raise ClaimFailed(f"{what}: (got, expected) differ at {diff!r}")
    raise ClaimFailed(f"{what}: got {actual!r}, expected {expected!r}")


def _hijack(call):
    """The ControlFlowHijack ``call()`` raises, or None."""
    try:
        call()
    except ControlFlowHijack as hijack:
        return hijack
    return None


def _yes(flag) -> str:
    return "YES" if flag else "no"


# -- paper artifacts (DESIGN.md §4, first table) ---------------------------

_claim("figure-1", "Figure 1: 5,925 Bugtraq reports over 12 categories")


@_part("breakdown")
def _figure1_breakdown():
    db = BugtraqDatabase.synthetic()
    rows = figure1_breakdown(db)
    _equal("reports in the database", len(db), TOTAL_REPORTS)
    _equal("reports over the 12 categories",
           sum(row.count for row in rows), 5925)
    _equal("category percentages",
           {row.category: row.percent for row in rows}, FIGURE1_PERCENTAGES)
    counts = [row.count for row in rows]
    _equal("category counts in descending order",
           counts, sorted(counts, reverse=True))
    return [str(row) for row in rows]


@_part("dominant-five")
def _figure1_dominant_five():
    db = BugtraqDatabase.synthetic()
    top = dominant_categories(db)
    _equal("dominant five categories", [row.category for row in top], [
        BugtraqCategory.INPUT_VALIDATION,
        BugtraqCategory.BOUNDARY_CONDITION,
        BugtraqCategory.DESIGN,
        BugtraqCategory.EXCEPTIONAL_CONDITIONS,
        BugtraqCategory.ACCESS_VALIDATION,
    ])
    _equal("dominant five = first five rows", [row.category for row in top],
           [row.category for row in figure1_breakdown(db)[:5]])
    _equal("dominant five share (%)", sum(row.percent for row in top), 83)
    return ["dominant five: 83% of the database"]


@_part("database-scale")
def _figure1_database_scale():
    db = BugtraqDatabase.synthetic()
    remote = len(db.remote_only())
    _expect(0 < remote < len(db),
            f"remote-exploitable reports: {remote} of {len(db)}")
    _equal("stack buffer overflow reports",
           db.class_counts()["stack buffer overflow"], 700)
    return [f"remote-exploitable reports: {remote} ({remote / len(db):.0%})"]


_claim("table-1", "Table 1: one vulnerability class, three categories "
       "by anchoring activity")


@_part("anchors")
def _table1_anchors():
    rows = table1_ambiguity()
    ids = [row.bugtraq_id for row in rows]
    _equal("Table 1 reports", ids, [3163, 5493, 3958])
    _equal("Table 1 reports", ids, list(TABLE1_REPORTS))
    _equal("anchored categories", [row.anchored_category for row in rows], [
        BugtraqCategory.INPUT_VALIDATION,
        BugtraqCategory.BOUNDARY_CONDITION,
        BugtraqCategory.ACCESS_VALIDATION,
    ])
    inconsistent = [row.bugtraq_id for row in rows if not row.consistent]
    _equal("rows whose anchor disagrees with the analysts", inconsistent, [])
    return [
        f"#{row.bugtraq_id:<6} anchor: {row.elementary_activity.value:<55} "
        f"-> {row.anchored_category.value}"
        for row in rows
    ]


@_part("one-class-three-categories")
def _table1_one_class():
    rows = table1_ambiguity()
    _equal("vulnerability classes",
           {corpus_report(row.bugtraq_id).vulnerability_class
            for row in rows},
           {"signed integer overflow"})
    _equal("distinct assigned categories",
           len({row.assigned_category for row in rows}), 3)
    return ["one class (signed integer overflow), three assigned categories"]


@_part("chains")
def _table1_chains():
    overflow = {corpus_report(i).category for i in BUFFER_OVERFLOW_CHAIN}
    fmt = {corpus_report(i).category for i in FORMAT_STRING_TRIO}
    _equal("buffer-overflow chain categories", len(overflow), 3)
    _equal("format-string trio categories", len(fmt), 3)
    return [
        "buffer overflow chain: " + ", ".join(sorted(c.value for c in overflow)),
        "format string trio:    " + ", ".join(sorted(c.value for c in fmt)),
    ]


def _figure2_pfsm():
    return PrimitiveFSM(
        "pFSM", "write i to tTvect[x]", "x",
        spec_accepts=in_range(0, 100),
        impl_accepts=less_equal(100),
        accept_action="tTvect[x]=i",
    )


_claim("figure-2", "Figure 2: the primitive FSM and its hidden path")


@_part("structure")
def _figure2_structure():
    pfsm = _figure2_pfsm()
    transitions = pfsm.transitions_spec()
    _equal("transitions", {t.kind for t in transitions}, {
        TransitionKind.SPEC_ACPT, TransitionKind.SPEC_REJ,
        TransitionKind.IMPL_REJ, TransitionKind.IMPL_ACPT,
    })
    _equal("transition count", len(transitions), 4)
    _equal("states", {s for t in transitions
                      for s in (t.kind.source, t.kind.target)},
           {StateKind.SPEC_CHECK, StateKind.ACCEPT, StateKind.REJECT})
    hidden = TransitionKind.IMPL_ACPT
    _expect(hidden.is_hidden, "IMPL_ACPT is not the hidden path")
    _equal("hidden path", (hidden.source, hidden.target),
           (StateKind.REJECT, StateKind.ACCEPT))
    return render_pfsm(pfsm).splitlines()


@_part("hidden-path-riders")
def _figure2_riders():
    pfsm = _figure2_pfsm()
    for low, high in ((-200, 300), (-5000, 5000)):
        riders = sum(1 for value in range(low, high)
                     if pfsm.step(value).via_hidden_path)
        _equal(f"inputs {low}..{high - 1} on the hidden path", riders, -low)
    return ["hidden-path riders: every negative x "
            "(200 of -200..299, 5000 of -5000..4999)"]


@_part("hidden-witnesses")
def _figure2_witnesses():
    witnesses = _figure2_pfsm().hidden_witnesses(
        Domain.integers(-10000, 10000), limit=10**9)
    _equal("hidden witnesses in -10000..9999", len(witnesses), 10000)
    return ["hidden witnesses: 10000 of -10000..9999"]


def _sendmail_exploit_run():
    app = Sendmail(SendmailVariant.VULNERABLE)
    for flag in craft_got_exploit(app):
        _expect(app.tTflag(flag).accepted,
                f"vulnerable Sendmail rejected exploit flag {flag!r}")
    hijack = _hijack(app.call_setuid)
    _expect(hijack is not None and app.process.is_mcode(hijack.target),
            "setuid() was not dispatched to Mcode")
    return app, hijack


_claim("figure-3", "Figure 3: Sendmail #3163, GOT(setuid) overwrite -> Mcode")


@_part("model-traversal")
def _figure3_traversal():
    result = sendmail_model.build_model().run(sendmail_model.exploit_input())
    _expect(result.compromised, "the #3163 exploit does not compromise")
    _equal("hidden paths taken",
           [e.subject for e in result.trace.hidden_path_steps()],
           ["pFSM2", "pFSM3"])
    _equal("operations completed", result.trace.operations_completed(),
           [sendmail_model.OPERATION_1, sendmail_model.OPERATION_2])
    return result.trace.to_text().splitlines()


@_part("input-sweep")
def _figure3_input_sweep():
    model = sendmail_model.build_model()
    corpus = [{"str_x": str(value), "str_i": "1"}
              for value in range(-500, 500)]
    _equal("compromising inputs among x = -500..499",
           sum(1 for record in corpus if model.is_compromised_by(record)),
           500)
    return ["compromising inputs: every negative x (500 of -500..499)"]


@_part("executable-exploit")
def _figure3_executable():
    _app, hijack = _sendmail_exploit_run()
    return [f"setuid() dispatched to Mcode at {hijack.target:#x} "
            f"(legitimate entry {hijack.legitimate:#x})"]


@_part("patched-forecloses")
def _figure3_patched():
    patched = Sendmail(SendmailVariant.PATCHED)
    accepted = [flag for flag in craft_got_exploit(patched)
                if patched.tTflag(flag).accepted]
    _equal("exploit flags the patched Sendmail accepts", accepted, [])
    _expect(patched.got_setuid_consistent(),
            "patched Sendmail's GOT(setuid) changed")
    return ["patched (0 <= x <= 100): every exploit flag rejected"]


@_part("foil-points")
def _figure3_foil_points():
    model = sendmail_model.build_model()
    points = minimal_foil_points(model, sendmail_model.exploit_input())
    _equal("foil points", {p.pfsm_name for p in points}, {"pFSM2", "pFSM3"})
    wrapping = minimal_foil_points(
        model, sendmail_model.wrapping_exploit_input())
    _equal("foil points of the wrapping exploit",
           {p.pfsm_name for p in wrapping}, {"pFSM1", "pFSM2", "pFSM3"})
    return [str(p) for p in wrapping]


@_part("render")
def _figure3_render():
    text = render_model(sendmail_model.build_model())
    for needle in ("Bugtraq #3163", "propagation gate", "Execute Mcode"):
        _expect(needle in text, f"rendered model lacks {needle!r}")
    return ["rendered model names #3163, the propagation gate and Mcode"]


_claim("figure-4", "Figure 4: NULL HTTPD heap overflow, unlink "
       "-> GOT(free) -> Mcode")


@_part("model-traversal")
def _figure4_traversal():
    model = nullhttpd_model.build_model(NullHttpdVariant.V0_5)
    result = model.run(nullhttpd_model.exploit_input_5774())
    _expect(result.compromised, "the #5774 exploit does not compromise")
    _equal("hidden paths taken", result.hidden_path_count, 4)
    _equal("operations completed", result.trace.operations_completed(), [
        nullhttpd_model.OPERATION_1,
        nullhttpd_model.OPERATION_2,
        nullhttpd_model.OPERATION_3,
    ])
    return result.trace.to_text().splitlines()


@_part("buffer-arithmetic")
def _figure4_buffer():
    outcome = NullHttpd(NullHttpdVariant.V0_5).handle_post(-800, b"A" * 1024)
    _equal("(PostData size, bytes copied, overflowed)",
           (outcome.buffer_size, outcome.bytes_copied, outcome.overflowed),
           (224, 1024, True))
    return [f"calloc(1024 + (-800)) -> {outcome.buffer_size}-byte PostData; "
            f"{outcome.bytes_copied} bytes copied (overflow)"]


@_part("unlink-write-primitive")
def _figure4_unlink():
    app = NullHttpd(NullHttpdVariant.V0_5)
    chain = app.handle_post(-800, craft_unlink_body(app, content_len=-800))
    _expect(chain.overflowed, "the unlink body did not overflow PostData")
    _expect(not app.heap_links_consistent(),
            "pFSM3: the overflow left chunk B's links intact")
    app.free_post_data()
    _expect(not app.got_free_consistent(),
            "pFSM4: the unlink did not rewrite GOT(free)")
    hijack = _hijack(app.call_free)
    _expect(hijack is not None and app.process.is_mcode(hijack.target),
            "free() was not dispatched to Mcode")
    return [
        "free(PostData) executed B->fd->bk = B->bk",
        f"addr_free now points to Mcode at {hijack.target:#x}",
    ] + app.process.heap.describe_layout().splitlines()


@_part("version-matrix")
def _figure4_versions():
    matrix = {}
    for variant in NullHttpdVariant:
        server = NullHttpd(variant)
        body = craft_unlink_body(server, content_len=-800)
        post = server.handle_post(-800, body)
        matrix[variant.name] = post.accepted and post.overflowed
    _equal("#5774 overflow by version", matrix,
           {"V0_5": True, "V0_5_1": False, "FIXED": False})
    return [f"{name:<8} overflow={_yes(hit)}" for name, hit in matrix.items()]


@_part("safe-unlink")
def _figure4_safe_unlink():
    hardened = NullHttpd(NullHttpdVariant.V0_5, check_unlink=True)
    hardened.handle_post(-800, craft_unlink_body(hardened, content_len=-800))
    try:
        hardened.free_post_data()
        caught = False
    except HeapCorruptionDetected:
        caught = True
    _expect(caught, "safe unlink did not stop the corrupted free")
    return ["safe unlink: HeapCorruptionDetected at free()"]


def _discovery_sweep(variant, known_vulnerable=()):
    """The §5.1 probed sweep of both read-postdata pFSMs on ``variant``."""
    activities, domains = nullhttpd_model.discovery_activities(variant)
    return DiscoveryEngine(known_vulnerable).sweep_probed(
        nullhttpd_model.OPERATION_1, activities, domains)


_claim("discovery-6255", "§5.1: Bugtraq #6255 discovered on NULL HTTPD "
       "0.5.1 and exploitable")


@_part("sweep-finds-6255")
def _discovery_sweep_finds():
    findings = _discovery_sweep(NullHttpdVariant.V0_5_1,
                                known_vulnerable=["pFSM1"])
    _equal("0.5.1 pFSMs with hidden paths",
           {f.pfsm_name for f in findings}, {"pFSM2"})
    new = DiscoveryEngine.new_findings(findings)
    _equal("new findings", [f.pfsm_name for f in new], ["pFSM2"])
    witness = new[0].witnesses[0]
    _expect(witness["input_len"] > witness["content_len"] + 1024,
            f"witness {witness!r} is not an over-long body")
    return [str(f) for f in findings] + [f"witness request: {witness}"]


@_part("exploitable")
def _discovery_exploitable():
    _expect(not NullHttpd(NullHttpdVariant.V0_5_1)
            .handle_post(-800, b"x" * 240).accepted,
            "0.5.1 still accepts the known #5774 contentLen")
    app = NullHttpd(NullHttpdVariant.V0_5_1)
    outcome = app.handle_post(100, craft_unlink_body(app, content_len=100))
    _expect(outcome.accepted and outcome.overflowed,
            "0.5.1 did not overflow with a valid Content-Length")
    app.free_post_data()
    hijack = _hijack(app.call_free)
    _expect(hijack is not None and app.process.is_mcode(hijack.target),
            "#6255 did not dispatch free() to Mcode")
    return [f"0.5.1 hijacked with valid Content-Length: free() -> Mcode at "
            f"{hijack.target:#x}"]


@_part("fix-is-clean")
def _discovery_fix_clean():
    _equal("findings on the && fix",
           _discovery_sweep(NullHttpdVariant.FIXED), [])
    return ["&& fix: no findings"]


@_part("v0-5-flags-both")
def _discovery_v0_5():
    _equal("0.5 pFSMs with hidden paths",
           {f.pfsm_name for f in _discovery_sweep(NullHttpdVariant.V0_5)},
           {"pFSM1", "pFSM2"})
    return ["0.5: pFSM1 and pFSM2"]


_claim("figure-5", "Figure 5: xterm log-file race, exactly the TOCTTOU "
       "window")


@_part("race-window")
def _figure5_window():
    analysis = build_race_scheduler(XtermVariant.VULNERABLE).explore()
    _equal("interleavings", analysis.total, 10)
    _equal("violating interleavings", len(analysis.violations), 1)
    violation = analysis.violations[0]
    _expect(violation.happened_between("tom:symlink", "xterm:check",
                                       "xterm:open"),
            f"the violation {violation.order} is not the TOCTTOU window")
    return [
        f"interleavings: {analysis.total}, violating: "
        f"{len(analysis.violations)} ({analysis.violation_ratio:.0%})",
        f"violating order: {' -> '.join(violation.order)}",
    ]


@_part("fixes-close-window")
def _figure5_fixes():
    races = {variant.name: build_race_scheduler(variant).explore().has_race
             for variant in XtermVariant}
    _equal("races by variant", races, {
        "VULNERABLE": True, "PATCHED_NOFOLLOW": False,
        "PATCHED_RECHECK": False,
    })
    return [f"{name:<18} race={_yes(race)}" for name, race in races.items()]


@_part("pfsm1-secure")
def _figure5_pfsm1():
    findings = hidden_path_report(xterm_model.build_model(),
                                  xterm_model.pfsm_domains())
    _equal("pFSMs with hidden paths", {f.pfsm_name for f in findings},
           {"pFSM2"})
    return [str(f) for f in findings]


_RWALL_MESSAGE = b"attacker::0:0::/:/bin/sh\n"

_claim("figure-6", "Figure 6: Solaris rwall corrupts /etc/passwd; either "
       "fix forecloses")


@_part("model-traversal")
def _figure6_traversal():
    result = rwall_model.build_model().run(rwall_model.exploit_input())
    _expect(result.compromised, "the rwall exploit does not compromise")
    _equal("hidden paths taken", result.hidden_path_count, 2)
    return result.trace.to_text().splitlines()


@_part("executable-corruption")
def _figure6_executable():
    world = make_rwall_world(RwallVariant.VULNERABLE)
    _expect(add_utmp_entry(world, User.regular("mallory", 1001),
                           "../etc/passwd"),
            "a regular user could not write /etc/utmp")
    report = RwallDaemon(world).broadcast(_RWALL_MESSAGE)
    _expect(report.wrote_non_terminal, "rwalld wrote only to terminals")
    _expect(passwd_corrupted(world, _RWALL_MESSAGE),
            "/etc/passwd does not hold the broadcast")
    return [
        f"delivered to: {', '.join(report.delivered_to)}",
        "/etc/passwd now contains the attacker's entry",
    ]


@_part("either-fix")
def _figure6_either_fix():
    corrupted = {}
    for variant, label in [
        (RwallVariant.VULNERABLE, "vulnerable"),
        (RwallVariant.PATCHED_PERMS, "utmp root-only (op 1 fixed)"),
        (RwallVariant.PATCHED_TYPECHECK, "type check (op 2 fixed)"),
    ]:
        fixed = make_rwall_world(variant)
        add_utmp_entry(fixed, User.regular("mallory", 1001), "../etc/passwd")
        RwallDaemon(fixed).broadcast(_RWALL_MESSAGE)
        corrupted[label] = passwd_corrupted(fixed, _RWALL_MESSAGE)
    _equal("/etc/passwd corrupted by variant", corrupted, {
        "vulnerable": True,
        "utmp root-only (op 1 fixed)": False,
        "type check (op 2 fixed)": False,
    })
    return [f"{label:<30} corrupted={_yes(hit)}"
            for label, hit in corrupted.items()]


@_part("terminals-served")
def _figure6_terminals():
    served = RwallDaemon(make_rwall_world(RwallVariant.PATCHED_TYPECHECK)) \
        .broadcast(b"system going down\n")
    _equal("terminals served by the type-check fix",
           set(served.delivered_to), {"/dev/pts/25", "/dev/pts/26"})
    return [f"type-check fix still serves: "
            f"{', '.join(sorted(served.delivered_to))}"]


_IIS_PROBES = [
    "tools/query.exe",
    "../winnt/system32/cmd.exe",
    "..%2fwinnt/system32/cmd.exe",
    "..%252fwinnt/system32/cmd.exe",
    "..%25252fwinnt/system32/cmd.exe",
]

_claim("figure-7", "Figure 7: IIS decodes after checking; ..%252f "
       "escapes the scripts root")


@_part("decode-check-matrix")
def _figure7_matrix():
    rows = []
    for variant in IisVariant:
        server = IisServer(variant)
        for probe in _IIS_PROBES:
            outcome = server.handle_cgi_request(probe)
            rows.append((variant.name, probe, outcome.accepted,
                         outcome.escaped_root))
    table = {(variant, probe): (accepted, escaped)
             for variant, probe, accepted, escaped in rows}
    for key, expected in [
        (("VULNERABLE", "tools/query.exe"), (True, False)),
        (("VULNERABLE", "..%252fwinnt/system32/cmd.exe"), (True, True)),
        (("PATCHED", "tools/query.exe"), (True, False)),
    ]:
        _equal(f"{key} (accepted, escaped)", table[key], expected)
    for key in [
        ("VULNERABLE", "../winnt/system32/cmd.exe"),
        ("VULNERABLE", "..%2fwinnt/system32/cmd.exe"),
        ("PATCHED", "..%252fwinnt/system32/cmd.exe"),
        ("PATCHED", "..%25252fwinnt/system32/cmd.exe"),
    ]:
        _expect(not table[key][0], f"{key} was accepted")
    return [
        f"{variant:<11} {probe:<40} accepted={str(accepted):<5} "
        f"escaped={escaped}"
        for variant, probe, accepted, escaped in rows
    ]


@_part("model-divergence")
def _figure7_model():
    result = iis_model.build_model().run(iis_model.exploit_input())
    _expect(result.compromised, "the model's exploit does not compromise")
    _equal("hidden paths taken", result.hidden_path_count, 1)
    return result.trace.to_text().splitlines()


@_part("nimda-outside-scripts")
def _figure7_nimda():
    nimda = IisServer(IisVariant.VULNERABLE).handle_cgi_request(
        "..%252fwinnt/system32/cmd.exe")
    _equal("(executed path, escaped root)",
           (nimda.executed_path, nimda.escaped_root),
           ("/wwwroot/winnt/system32/cmd.exe", True))
    return [f"executed: {nimda.executed_path} (outside /wwwroot/scripts)"]


_claim("figure-8-table-2", "Figure 8 + Table 2: three generic pFSM types "
       "cover the 16-cell grid")


@_part("grid")
def _table2_grid():
    grid = table2_grid(all_paper_models())
    derived = {}
    for cell in grid:
        derived.setdefault(cell.vulnerability, {})[cell.pfsm_name] = \
            cell.check_type
    _equal("Table 2 grid", derived, TABLE2_EXPECTED)
    _equal("Table 2 cells", len(grid), 16)
    _equal("unclassified pFSMs",
           [cell.pfsm_name for cell in grid if cell.check_type is None], [])
    _equal("cells without a question",
           [cell.pfsm_name for cell in grid if not cell.question], [])
    return [
        f"{cell.vulnerability:<42} {cell.pfsm_name:<6} "
        f"{cell.check_type.value:<30} {cell.question[:50]}"
        for cell in grid
    ]


@_part("three-types-cover")
def _table2_three_types():
    counts = Counter(cell.check_type
                     for cell in table2_grid(all_paper_models()))
    _equal("pFSM types used", set(counts), set(PfsmType))
    return [f"{check_type.value:<32} {count}"
            for check_type, count in counts.most_common()]


@_part("content-attribute-dominates")
def _table2_content_dominates():
    counts = Counter(cell.check_type
                     for cell in table2_grid(all_paper_models()))
    _equal("pFSM types by frequency",
           [check_type for check_type, _n in counts.most_common()],
           [PfsmType.CONTENT_ATTRIBUTE, PfsmType.REFERENCE_CONSISTENCY,
            PfsmType.OBJECT_TYPE])
    return [f"most frequent type: {PfsmType.CONTENT_ATTRIBUTE.value}"]


_claim("lemma", "§6 Lemma parts 1 & 2 over the 7 paper models; "
       "Observation 1 foil points")


@_part("census")
def _lemma_census():
    models = all_paper_models()
    _equal("paper models", len(models), 7)
    _equal("pFSMs across the paper models",
           sum(len(list(model.all_pfsms())) for model in models.values()), 16)
    return ["7 paper models, 16 pFSMs"]


def _lemma_model(label):
    """Lemma parts 1 and 2, Observation 1 and the per-pFSM defenses for
    one paper model."""
    model = all_paper_models()[label]
    exploit = all_exploit_inputs()[label]
    benign_input = all_benign_inputs()[label]
    domains = all_operation_domains()[label]
    for operation in model.operations:
        domain = domains.get(operation.name)
        _expect(domain is not None, f"no domain for {operation.name}")
        _expect(check_lemma_part1(operation, domain),
                f"part 1 fails for {operation.name}")
    _expect(check_lemma_part2(model, exploit), "part 2 fails")
    report = verify_lemma(model, domains, exploit)
    _expect(report.holds, "verify_lemma does not hold")
    _expect(report.foil_points, "the report has no foil point")

    original = model.run(exploit)
    hidden = {e.subject for e in original.trace.hidden_path_steps()}
    foils = {p.pfsm_name for p in minimal_foil_points(model, exploit)}
    _expect(hidden, "the exploit rides no hidden path")
    _expect(hidden <= foils,
            f"hidden steps {sorted(hidden - foils)} are not foil points")
    for operation in model.operations:
        rides_here = any(
            outcome.via_hidden_path
            for op_result in original.operation_results
            if op_result.operation_name == operation.name
            for outcome in op_result.outcomes
        )
        if rides_here:
            _expect(not model.with_operation_secured(operation.name)
                    .is_compromised_by(exploit),
                    f"securing {operation.name} did not foil")

    secured = model.fully_secured().run(benign_input)
    _expect(secured.compromised and secured.hidden_path_count == 0,
            "the fully secured model breaks benign traffic")
    for operation, pfsm in model.all_pfsms():
        benign = model.with_pfsm_secured(operation.name, pfsm.name) \
            .run(benign_input)
        _expect(benign.compromised and benign.hidden_path_count == 0,
                f"fixing {pfsm.name} broke benign traffic")
    return [f"{label:<45} {len(model.operations)} operation(s), "
            f"{len(foils)} foil point(s): holds"]


for _label in sorted(all_paper_models()):
    _part(_slug(_label))(partial(_lemma_model, _label))


_claim("share-22", "§1: the studied classes are 22% of Bugtraq")


@_part("studied-family")
def _share_22():
    db = BugtraqDatabase.synthetic()
    count, share = studied_family_share(db)
    _equal("studied-family reports", count, 1304)
    _equal("studied-family share (%)", round(100 * share), 22)
    return [f"studied classes: {count} of {len(db)} reports ({share:.1%}); "
            f"paper claims 22%"]


_claim("ghttpd-5960", "[21] GHTTPD #5960: stack smash -> Mcode; each "
       "activity's defense foils")


@_part("executable-smash")
def _ghttpd_smash():
    app = Ghttpd(GhttpdVariant.VULNERABLE)
    smash = app.serve(craft_stack_smash(app))
    _expect(smash.hijacked and app.process.is_mcode(smash.returned_to),
            "Log() did not return to Mcode")
    return [f"Log() returned to Mcode at {smash.returned_to:#x}"]


@_part("defense-matrix")
def _ghttpd_defenses():
    hijacked = {}
    for variant in GhttpdVariant:
        server = Ghttpd(variant)
        hijacked[variant.name] = server.serve(craft_stack_smash(server)) \
            .hijacked
    _equal("hijacked by variant", hijacked, {
        "VULNERABLE": True, "PATCHED": False, "STACKGUARD": False,
        "SPLITSTACK": False,
    })
    return [f"{name:<12} hijacked={_yes(hit)}"
            for name, hit in hijacked.items()]


@_part("model-agreement")
def _ghttpd_model():
    result = ghttpd_model.build_model().run(ghttpd_model.exploit_input())
    _expect(result.compromised, "the model's exploit does not compromise")
    _equal("hidden paths taken", result.hidden_path_count, 2)
    return result.trace.to_text().splitlines()


@_part("benign-transparent")
def _ghttpd_benign():
    refused = [variant.name for variant in GhttpdVariant
               if not Ghttpd(variant).serve(b"GET / HTTP/1.0").accepted]
    _equal("variants refusing a benign request", refused, [])
    return ["every variant serves a benign request"]


_claim("rpc-statd-1480", "[21] rpc.statd #1480: %n rewrites the return "
       "address; %s and the filter foil")


@_part("executable-format-write")
def _statd_write():
    app = RpcStatd(StatdVariant.VULNERABLE)
    result = app.notify(craft_format_exploit(app))
    _expect(result.wrote_memory and result.hijacked
            and app.process.is_mcode(result.returned_to),
            "the %n payload did not return to Mcode")
    return [f"%n rewrote the return address; control at "
            f"{result.returned_to:#x}"]


@_part("fix-matrix")
def _statd_fixes():
    hijacked = {}
    for variant in StatdVariant:
        server = RpcStatd(variant)
        hijacked[variant.name] = server.notify(craft_format_exploit(server)) \
            .hijacked
    _equal("hijacked by variant", hijacked,
           {"VULNERABLE": True, "PATCHED": False, "SANITIZED": False})
    return [f"{name:<12} hijacked={_yes(hit)}"
            for name, hit in hijacked.items()]


@_part("leak-without-write")
def _statd_leak():
    leak = RpcStatd(StatdVariant.VULNERABLE).notify(b"%x.%x.%x.%x")
    _equal("%x-only payload (accepted, hijacked, wrote memory)",
           (leak.accepted, leak.hijacked, leak.wrote_memory),
           (True, False, False))
    _expect(b"." in leak.output, "the %x payload leaked nothing")
    return ["%x-only payload leaks the stack but writes nothing"]


@_part("model-agreement")
def _statd_model():
    traversal = rpc_statd_model.build_model().run(
        rpc_statd_model.exploit_input())
    _expect(traversal.compromised, "the model's exploit does not compromise")
    _equal("hidden paths taken", traversal.hidden_path_count, 2)
    return traversal.trace.to_text().splitlines()


# -- extension experiments (DESIGN.md §4, second table) --------------------

def _rsync_dispatch(variant):
    daemon = RsyncDaemon(variant)
    mcode = daemon.process.plant_mcode()
    daemon.receive_request(mcode.to_bytes(4, "little"))
    return daemon, daemon.dispatch(craft_negative_opcode(daemon))


def _table1_exploits():
    """The three Table 1 exploits run on their vulnerable programs."""
    sendmail, hijack = _sendmail_exploit_run()
    kernel = FreebsdKernel(FreebsdVariant.VULNERABLE)
    kernel.copy_request(craft_cred_overwrite(kernel), -1)
    daemon, dispatch = _rsync_dispatch(RsyncVariant.VULNERABLE)
    return sendmail, hijack, kernel, daemon, dispatch


_claim("table-1-executable", "Table 1, executable: all three rows "
       "exploited; fixes at the anchors")


@_part("all-rows-exploited")
def _table1x_exploited():
    sendmail, hijack, kernel, daemon, dispatch = _table1_exploits()
    exploited = {
        "#3163 Sendmail (Input Validation)":
            sendmail.process.is_mcode(hijack.target),
        "#5493 FreeBSD (Boundary Condition)": kernel.escalated,
        "#3958 rsync (Access Validation)":
            dispatch.hijacked and daemon.process.is_mcode(dispatch.handler),
    }
    _equal("rows exploited", exploited, dict.fromkeys(exploited, True))
    return [f"{row:<40} exploited=YES" for row in exploited]


@_part("three-consequences")
def _table1x_consequences():
    sendmail, _hijack, kernel, _daemon, dispatch = _table1_exploits()
    consequences = {
        "#3163: GOT entry of setuid() overwritten (input anchor)":
            not sendmail.got_setuid_consistent(),
        "#5493: kernel ucred overwritten across the buffer bound":
            not kernel.cred_intact(),
        "#3958: control dispatched through an unverified pointer":
            dispatch.hijacked,
    }
    _equal("consequences observed", consequences,
           dict.fromkeys(consequences, True))
    return list(consequences)


@_part("fixes-at-anchors")
def _table1x_fixes():
    patched = Sendmail(SendmailVariant.PATCHED)
    fixed_kernel = FreebsdKernel(FreebsdVariant.PATCHED)
    _guarded, guarded_dispatch = _rsync_dispatch(RsyncVariant.GUARDED)
    fixed = {
        "#3163": all(not patched.tTflag(flag).accepted
                     for flag in craft_got_exploit(patched)),
        "#5493": not fixed_kernel.copy_request(
            craft_cred_overwrite(fixed_kernel), -1).accepted,
        "#3958": not guarded_dispatch.accepted,
    }
    _equal("fixed at the anchoring activity", fixed,
           dict.fromkeys(fixed, True))
    return [f"{row} fix forecloses" for row in fixed]


def _secure_by_type(model, check_type):
    """Copy of a model with every pFSM of one generic type secured."""
    hardened = model
    for operation, pfsm in model.all_pfsms():
        if pfsm.check_type is check_type:
            hardened = hardened.with_pfsm_secured(operation.name, pfsm.name)
    return hardened


def _survivors(*check_types):
    """Labels of the extended models whose exploit still compromises
    with every pFSM of ``check_types`` secured."""
    exploits = all_extended_exploit_inputs()
    survivors = []
    for label, model in all_extended_models().items():
        for check_type in check_types:
            model = _secure_by_type(model, check_type)
        if model.is_compromised_by(exploits[label]):
            survivors.append(label)
    return survivors


_claim("ablation-check-types", "Ablation: the 13 exploits (7 paper "
       "models) under one, two or three deployed check types")


@_part("census")
def _ablation_census():
    models = all_extended_models()
    exploits = all_extended_exploit_inputs()
    benigns = all_extended_benign_inputs()
    paper = all_paper_models()
    _equal("extended models", len(models), 13)
    _equal("paper models", len(paper), 7)
    _equal("paper models missing from the extended set",
           sorted(set(paper) - set(models)), [])
    for label, model in models.items():
        _expect(model.is_compromised_by(exploits[label]),
                f"{label}: the exploit does not compromise")
        _expect(not model.is_compromised_by(benigns[label]),
                f"{label}: the benign input compromises")
        _expect(not model.fully_secured().is_compromised_by(exploits[label]),
                f"{label}: the fully secured model is compromised")
    return [f"{len(models)} exploits run; benign inputs safe; fully secured "
            f"models foil every exploit"]


@_part("single-check-type")
def _ablation_single():
    total = len(all_extended_models())
    single = {t: _survivors(t) for t in PfsmType}
    stopped = {t: total - len(s) for t, s in single.items()}
    content = stopped[PfsmType.CONTENT_ATTRIBUTE]
    reference = stopped[PfsmType.REFERENCE_CONSISTENCY]
    object_type = stopped[PfsmType.OBJECT_TYPE]
    _expect(content >= reference and content >= object_type,
            f"content/attribute checks stop {content}, fewer than "
            f"reference {reference} or object type {object_type}")
    _expect(object_type <= reference,
            f"object-type checks stop {object_type}, more than reference "
            f"consistency ({reference})")
    return [
        f"{check_type.value:<32} stops {stopped[check_type]:>2}/{total}; "
        f"survives: {', '.join(s) or 'none'}"
        for check_type, s in single.items()
    ]


@_part("defense-in-depth")
def _ablation_layered():
    layered = {
        (first.value, second.value): len(_survivors(first, second))
        for first, second in [
            (PfsmType.CONTENT_ATTRIBUTE, PfsmType.REFERENCE_CONSISTENCY),
            (PfsmType.CONTENT_ATTRIBUTE, PfsmType.OBJECT_TYPE),
            (PfsmType.OBJECT_TYPE, PfsmType.REFERENCE_CONSISTENCY),
        ]
    }
    layered["all three"] = len(_survivors(*PfsmType))
    _equal("survivors of all three check types", layered["all three"], 0)
    _equal("survivors of content/attribute + reference consistency",
           layered[(PfsmType.CONTENT_ATTRIBUTE.value,
                    PfsmType.REFERENCE_CONSISTENCY.value)], 0)
    return [f"{str(combo):<70} {count}" for combo, count in layered.items()]


@_part("first-and-last-fix")
def _ablation_first_last():
    exploits = all_extended_exploit_inputs()
    rows = []
    for label, model in all_extended_models().items():
        exploit = exploits[label]
        hidden = [e.subject
                  for e in model.run(exploit).trace.hidden_path_steps()]
        first_fixed = last_fixed = None
        for operation, pfsm in model.all_pfsms():
            if pfsm.name == hidden[0] and first_fixed is None:
                first_fixed = not model.with_pfsm_secured(
                    operation.name, pfsm.name).is_compromised_by(exploit)
            if pfsm.name == hidden[-1]:
                last_fixed = not model.with_pfsm_secured(
                    operation.name, pfsm.name).is_compromised_by(exploit)
        _expect(first_fixed and last_fixed,
                f"{label}: first-fix foils={first_fixed}, "
                f"last-fix foils={last_fixed}")
        rows.append(f"{label:<45} first-fix and last-fix both foil")
    return rows


def _format_trio_exploits():
    """The three format-string exploits run on their vulnerable programs."""
    ftpd = WuFtpd(WuFtpdVariant.VULNERABLE)
    ftpd_reply = ftpd.handle_command(craft_site_exec_exploit(ftpd))
    svt = Splitvt(SplitvtVariant.VULNERABLE)
    svt.set_title(craft_handler_overwrite(svt))
    handler_consistent = svt.handler_consistent(0)
    splitvt_hit = svt.refresh(0).hijacked
    ice = Icecast(IcecastVariant.VULNERABLE)
    ice_payload = craft_expansion_smash(ice)
    ice_result = ice.print_client(ice_payload)
    return (ftpd_reply, handler_consistent, splitvt_hit, ice_payload,
            ice_result)


_claim("format-trio", "Format-string trio, executable: #1387/#2210/#2264 "
       "exploited, three consequences")


@_part("all-exploited")
def _trio_exploited():
    ftpd_reply, _consistent, splitvt_hit, _payload, ice_result = \
        _format_trio_exploits()
    exploited = {
        "#1387 wu-ftpd (Input Validation)": ftpd_reply.hijacked,
        "#2210 splitvt (Access Validation)": splitvt_hit,
        "#2264 icecast (Boundary Condition)": ice_result.hijacked,
    }
    _equal("trio members exploited", exploited,
           dict.fromkeys(exploited, True))
    return [f"{row:<40} exploited=YES" for row in exploited]


@_part("distinct-consequences")
def _trio_consequences():
    ftpd_reply, handler_consistent, _hit, ice_payload, ice_result = \
        _format_trio_exploits()
    signatures = {
        "return address rewritten": ftpd_reply.hijacked,
        "function pointer outside user domain rewritten":
            not handler_consistent,
        "tiny input expands past the buffer":
            len(ice_payload) < 32 and ice_result.formatted_length > 256,
    }
    _equal("consequence signatures", signatures,
           dict.fromkeys(signatures, True))
    return [f"{name:<50} YES" for name in signatures] + [
        f"icecast expansion: {len(ice_payload)} bytes -> "
        f"{ice_result.formatted_length}"]


@_part("fixes")
def _trio_fixes():
    fixed_ftpd = WuFtpd(WuFtpdVariant.PATCHED)
    guarded = Splitvt(SplitvtVariant.GUARDED)
    guarded.set_title(craft_handler_overwrite(guarded))
    fixed_ice = Icecast(IcecastVariant.PATCHED)
    fixed = {
        "#1387": not fixed_ftpd.handle_command(
            craft_site_exec_exploit(fixed_ftpd)).hijacked,
        "#2210": not guarded.refresh(0).dispatched,
        "#2264": not fixed_ice.print_client(
            craft_expansion_smash(fixed_ice)).hijacked,
    }
    _equal("fix forecloses", fixed, dict.fromkeys(fixed, True))
    return [f"{row} fix forecloses" for row in fixed]


_claim("state-space", "State space: every model hidden-reachable, "
       "2^h - 1 exploit paths, cut sets disconnect")


def _state_space_model(label):
    """Reachability, exploit-path count and cut set of one model's
    state space."""
    model = all_extended_models()[label]
    space = build_state_space(model, all_extended_pfsm_domains()[label])
    hidden = len(space.hidden_edges())
    paths = len(space.exploit_paths(limit=64))
    _expect(space.compromise_reachable(), "compromise unreachable")
    _expect(space.benign_path_exists(), "no benign path")
    _equal(f"exploit paths over {hidden} hidden edges", paths, 2**hidden - 1)
    cut = space.cut_set()
    working = space.graph.copy()
    working.remove_edges_from(cut)
    _expect(not StateSpace(model, working).compromise_reachable(),
            "removing the cut set leaves compromise reachable")
    return [f"{label:<45} nodes={space.node_count:>3} "
            f"hidden={hidden} paths={paths} |cut|={len(cut)}"]


for _label in all_extended_models():
    _part(_slug(_label))(partial(_state_space_model, _label))


@_part("fingerprints")
def _state_space_fingerprints():
    models = all_extended_models()
    prints = {}
    for label, model in models.items():
        prints[label] = model_fingerprint(model)
        prints[label + " [secured]"] = model_fingerprint(model.fully_secured())
    _equal("distinct fingerprints", len(set(prints.values())), len(prints))
    rebuilt = {label: model_fingerprint(model)
               for label, model in all_extended_models().items()}
    _equal("fingerprints of rebuilt models",
           rebuilt, {label: prints[label] for label in rebuilt})
    return [f"{len(prints)} fix levels, {len(prints)} distinct "
            f"reproducible fingerprints"]


_claim("metrics", "Metrics: Sendmail compromise probability under "
       "boundary probes; effort to foil")


@_part("compromise-probability")
def _metrics():
    model = sendmail_model.build_model()
    inputs = WeightedDomain.uniform(Domain([
        {"str_x": s, "str_i": "1"}
        for s in ("-3772", "-1", "0", "7", "50", "100", "101", "500",
                  str(2**31), str(2**32 - 5))
    ]))
    vulnerable = compromise_probability(model, inputs)
    pfsm2_fixed = compromise_probability(
        model.with_pfsm_secured(sendmail_model.OPERATION_1, "pFSM2"), inputs)
    secured = compromise_probability(model.fully_secured(), inputs)
    effort = mean_effort_to_foil(model, inputs)
    _expect(vulnerable > 0, "the vulnerable model is never compromised")
    _equal("P(compromise) with pFSM2 fixed", pfsm2_fixed, 0.0)
    _equal("P(compromise) fully secured", secured, 0.0)
    _equal("fixes to foil in cascade order", effort, 2)
    return [
        f"vulnerable:      P = {vulnerable:.2f}",
        f"pFSM2 fixed:     P = {pfsm2_fixed:.2f}",
        f"fully secured:   P = {secured:.2f}",
        f"effort to foil (cascade order): {effort} fixes",
    ]


_COVERAGE_TRIALS = 60


def _got_target():
    process = Process()
    symbols = list(process.got.symbols())
    span = Region("got-loaded", process.got.entry_address(symbols[0]),
                  len(symbols) * WORD_SIZE)
    return (process.space, span,
            lambda: all(process.got.is_consistent(s) for s in symbols))


def _heap_target():
    space = AddressSpace(size=1 << 20)
    heap = Heap(space, size=64 * 1024)
    first = heap.malloc(64)
    heap.malloc(16)
    heap.free(first)
    chunk = heap.chunk_for(first)
    return (space, Region("links", chunk.fd_address, 2 * WORD_SIZE),
            heap.links_intact)


def _stack_target(slot, predicate):
    """A frame whose ``slot`` ("ret" or "canary") is corrupted, judged by
    the canary or by the return-address consistency check."""
    def build():
        space = AddressSpace(size=1 << 20)
        stack = CallStack(space, size=8192)
        frame = stack.push_frame("f", 0x1000, {"buf": 32}, canary=0xCAFE)
        address = frame.return_address_slot if slot == "ret" \
            else frame.canary_slot
        check = stack.canary_intact if predicate == "canary" \
            else stack.return_address_intact
        return space, Region(slot, address, WORD_SIZE), check
    return build


def _coverage_campaign(name, target, seed, floor):
    """One injection campaign: its coverage equals ``floor`` when that is
    0 or 1, else is at least ``floor``."""
    report = measure_detection_coverage(name, target,
                                        trials=_COVERAGE_TRIALS, seed=seed)
    if floor in (0.0, 1.0):
        _equal(f"{name}: coverage", report.coverage, floor)
    else:
        _expect(report.coverage >= floor,
                f"{name}: coverage {report.coverage} < {floor}")
    return [str(report)]


_claim("fault-coverage", "Fault coverage: consistency checks catch every "
       "injected corruption; canaries miss targeted writes")

for _name, _campaign in [
    ("got", ("GOT entries vs GOT consistency check", _got_target, 11, 1.0)),
    # Safe unlink admits a rare aliasing false negative (a corrupted fd
    # just below the bin makes fd->bk alias the bin's head), so its
    # coverage is near-perfect rather than exact.
    ("heap-links", ("heap free-chunk links vs safe-unlink predicate",
                    _heap_target, 12, 0.95)),
    ("ret-vs-canary", ("return slot (targeted write) vs canary",
                       _stack_target("ret", "canary"), 13, 0.0)),
    ("ret-vs-check", ("return slot (targeted write) vs consistency check",
                      _stack_target("ret", "check"), 14, 1.0)),
    ("canary-vs-canary", ("canary word (linear overrun) vs canary",
                          _stack_target("canary", "canary"), 15, 1.0)),
]:
    _part(_name)(partial(_coverage_campaign, *_campaign))
