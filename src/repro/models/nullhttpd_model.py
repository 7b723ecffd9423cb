"""Figure 4: the NULL HTTPD heap overflow as a three-operation,
four-pFSM cascade.

Operation 1 — *Read postdata from socket to PostData* (object: the
request):

* pFSM1 (Content and Attribute Check): ``contentLen >= 0``.  Version
  0.5 performs no check (the known #5774); 0.5.1 installs it.
* pFSM2 (Content and Attribute Check): ``length(input) <=
  size(PostData)``.  *Neither* 0.5 nor 0.5.1 enforces this — the recv
  loop's ``||``-for-``&&`` bug (#6255, the paper's discovery).  The
  fixed loop makes the implementation match the spec.

Propagation gate — an overflow reaches the free chunk B after PostData:
``B->fd`` and ``B->bk`` now hold attacker values.

Operation 2 — *Allocate and free the buffer PostData* (object: the
free-chunk links):

* pFSM3 (Reference Consistency Check): free-chunk links unchanged.
  GNU libc 2003 performs no check, so ``free(PostData)`` executes
  ``B->fd->bk = B->bk`` with attacker operands.

Propagation gate — the unlink write lands on the GOT entry of
``free()``.

Operation 3 — *Manipulate the GOT entry of free* (object:
``addr_free``):

* pFSM4 (Reference Consistency Check): ``addr_free`` unchanged since
  load; no implementation check, so the next ``free()`` call executes
  Mcode.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..apps.nullhttpd import RECV_CHUNK, NullHttpd, NullHttpdVariant
from ..core import (
    Domain,
    ModelBuilder,
    PfsmType,
    Predicate,
    VulnerabilityModel,
    attr,
    greater_equal,
    named_predicate,
    truthy,
)
from ..memory import Int32

__all__ = [
    "build_model",
    "exploit_input_5774",
    "exploit_input_6255",
    "discovery_activities",
    "benign_input",
    "pfsm_domains",
    "operation_domains",
]

OPERATION_1 = "Read postdata from socket to PostData"
OPERATION_2 = "Allocate and free the buffer PostData"
OPERATION_3 = "Manipulate the GOT entry of free"

#: The constant slack the server adds to contentLen (source line 1).
SLACK = 1024


def _buffer_size(content_len: int) -> int:
    """The size calloc actually receives (32-bit signed arithmetic)."""
    return (Int32(content_len) + SLACK).value


#: Registered by name so sweep tasks over this model pickle across
#: process boundaries (see repro.core.predspec).
_fits_buffer = named_predicate(
    "fits_buffer",
    lambda obj: obj["input_len"] <= _buffer_size(obj["content_len"]),
    "length(input) <= size(PostData)",
)


def _carry_links(result) -> Dict[str, bool]:
    """Gate 1: copying past the buffer overwrites B->fd/B->bk."""
    obj = result.final_object
    overflowed = obj["input_len"] > _buffer_size(obj["content_len"])
    return {"links_unchanged": not overflowed}


def _carry_addr_free(result) -> Dict[str, bool]:
    """Gate 2: the unlink of corrupted links rewrites addr_free."""
    return {"addr_free_unchanged": result.final_object["links_unchanged"]}


def build_model(
    variant: NullHttpdVariant = NullHttpdVariant.V0_5,
    safe_unlink: bool = False,
    check_got: bool = False,
) -> VulnerabilityModel:
    """The Figure 4 model for a given server variant.

    ``safe_unlink`` gives pFSM3 a correct implementation (the hardened
    allocator); ``check_got`` does the same for pFSM4.
    """
    spec_len = attr("content_len", greater_equal(0)).renamed("contentLen >= 0")
    if variant is NullHttpdVariant.V0_5:
        impl_len = None  # 0.5 never checks contentLen
    else:
        impl_len = spec_len
    if variant is NullHttpdVariant.FIXED:
        impl_fit = _fits_buffer  # && loop: copy never exceeds the buffer
    else:
        impl_fit = None  # || loop: everything gets copied (#6255)

    links_spec = attr(
        "links_unchanged", truthy("B->fd and B->bk unchanged")
    )
    addr_free_spec = attr(
        "addr_free_unchanged", truthy("addr_free unchanged since load")
    )
    return (
        ModelBuilder(
            "NULL HTTPD Heap Overflow",
            bugtraq_ids=[5774, 6255],
            final_consequence="Mcode is executed",
        )
        .operation(OPERATION_1, obj="the POST request")
        .pfsm(
            "pFSM1",
            activity="read contentLen; calloc PostData[1024+contentLen]",
            object_name="contentLen",
            spec=spec_len,
            impl=impl_len,
            action="calloc PostData[1024+contentLen]",
            check_type=PfsmType.CONTENT_ATTRIBUTE,
        )
        .pfsm(
            "pFSM2",
            activity="read from the socket into PostData",
            object_name="input",
            spec=_fits_buffer,
            impl=impl_fit,
            action="copy input to PostData",
            check_type=PfsmType.CONTENT_ATTRIBUTE,
        )
        .gate(
            "B->fd = &addr_free - (offset of field bk); B->bk = Mcode",
            carry=_carry_links,
        )
        .operation(OPERATION_2, obj="the free-chunk links of B")
        .pfsm(
            "pFSM3",
            activity="free(PostData): consolidate and unlink chunk B",
            object_name="B->fd, B->bk",
            spec=links_spec,
            impl=links_spec if safe_unlink else None,
            action="execute B->fd->bk = B->bk",
            check_type=PfsmType.REFERENCE_CONSISTENCY,
        )
        .gate(
            ".GOT entry of function free points to Mcode",
            carry=_carry_addr_free,
        )
        .operation(OPERATION_3, obj="addr_free")
        .pfsm(
            "pFSM4",
            activity="execute addr_free when function free is called",
            object_name="addr_free",
            spec=addr_free_spec,
            impl=addr_free_spec if check_got else None,
            action="call the function referred by addr_free",
            check_type=PfsmType.REFERENCE_CONSISTENCY,
        )
        .build()
    )


def exploit_input_5774() -> Dict[str, int]:
    """The known exploit: negative contentLen shrinks the buffer to 224
    bytes while at least 1024 bytes arrive."""
    return {"content_len": -800, "input_len": 1024}


def exploit_input_6255() -> Dict[str, int]:
    """The discovered exploit: correct contentLen, over-long body; the
    ``||`` loop copies past the buffer."""
    return {"content_len": 100, "input_len": 2048}


def discovery_activities(
    variant: NullHttpdVariant,
) -> Tuple[List[Tuple[str, str, Predicate, Callable[[Any], bool]]],
           Dict[str, Domain]]:
    """The §5.1 probe set-up of operation 1 on ``variant``: the
    ``(pfsm_name, activity, spec, probe)`` rows and the per-pFSM domains
    that :meth:`~repro.core.DiscoveryEngine.sweep_probed` takes.  Each
    probe runs the executable server on one object and reports whether
    it got through: a non-rejected ``contentLen`` for pFSM1, a body
    copied whole for pFSM2."""

    def probe_content_len(content_len: int) -> bool:
        app = NullHttpd(variant)
        return app.handle_post(content_len,
                               b"x" * max(content_len, 0)).accepted

    def probe_copy(request: Dict[str, int]) -> bool:
        app = NullHttpd(variant)
        outcome = app.handle_post(request["content_len"],
                                  b"x" * request["input_len"])
        return outcome.accepted and \
            outcome.bytes_copied == request["input_len"]

    activities = [
        ("pFSM1", "validate contentLen",
         greater_equal(0).renamed("contentLen >= 0"), probe_content_len),
        ("pFSM2", "terminate the copy at the buffer size", _fits_buffer,
         probe_copy),
    ]
    domains = {
        "pFSM1": Domain.of(-800, -1, 0, 100, 4096),
        "pFSM2": Domain.records(
            content_len=Domain.of(0, 100, 500),
            input_len=Domain.of(0, 100, 1024, 1124, 1500,
                                2 * RECV_CHUNK + 200),
        ),
    }
    return activities, domains


def benign_input() -> Dict[str, int]:
    """A well-formed POST."""
    return {"content_len": 300, "input_len": 300}


def pfsm_domains() -> Dict[str, Domain]:
    """Candidate-object domains per pFSM."""
    requests = Domain.records(
        content_len=Domain.of(-800, -1, 0, 100, 300, 4096),
        input_len=Domain.of(0, 100, 224, 240, 1024, 1140, 2048),
    )
    links = Domain.of({"links_unchanged": True}, {"links_unchanged": False})
    got = Domain.of({"addr_free_unchanged": True}, {"addr_free_unchanged": False})
    return {"pFSM1": requests, "pFSM2": requests, "pFSM3": links, "pFSM4": got}


def operation_domains() -> Dict[str, Domain]:
    """Input domains per operation."""
    domains = pfsm_domains()
    return {
        OPERATION_1: domains["pFSM1"],
        OPERATION_2: domains["pFSM3"],
        OPERATION_3: domains["pFSM4"],
    }
