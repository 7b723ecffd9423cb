"""Prebuilt paper models: one module per figure/case study.

Each module exports ``build_model`` (with fix parameters mirroring the
paper's prescribed checks), ``exploit_input``/``benign_input``, and the
``pfsm_domains``/``operation_domains`` used by hidden-path analysis and
Lemma verification.  :mod:`repro.models.generic` holds the Figure 8
templates and the Table 2 grid.
"""

from . import (
    envutil_model,
    freebsd_model,
    generic,
    icecast_model,
    splitvt_model,
    ghttpd_model,
    iis_model,
    nullhttpd_model,
    rpc_statd_model,
    rsync_model,
    rwall_model,
    sendmail_model,
    wuftpd_model,
    xterm_model,
)
from .generic import (
    TABLE2_EXPECTED,
    Table2Cell,
    content_attribute_check,
    generic_operation,
    object_type_check,
    reference_consistency_check,
    table2_grid,
)

__all__ = [
    "envutil_model",
    "freebsd_model",
    "rsync_model",
    "wuftpd_model",
    "icecast_model",
    "splitvt_model",
    "all_extended_models",
    "all_extended_exploit_inputs",
    "all_extended_benign_inputs",
    "all_extended_operation_domains",
    "all_extended_pfsm_domains",
    "generic",
    "ghttpd_model",
    "iis_model",
    "nullhttpd_model",
    "rpc_statd_model",
    "rwall_model",
    "sendmail_model",
    "xterm_model",
    "TABLE2_EXPECTED",
    "Table2Cell",
    "content_attribute_check",
    "generic_operation",
    "object_type_check",
    "reference_consistency_check",
    "table2_grid",
    "all_paper_models",
    "all_exploit_inputs",
    "all_benign_inputs",
    "all_operation_domains",
    "all_pfsm_domains",
]


def all_paper_models():
    """The Table 2 row label → built (vulnerable) model mapping."""
    return {
        "Sendmail Signed Integer Overflow": sendmail_model.build_model(),
        "NULL HTTPD Heap Overflow": nullhttpd_model.build_model(),
        "Rwall File Corruption": rwall_model.build_model(),
        "IIS Filename Decoding Vulnerability": iis_model.build_model(),
        "Xterm File Race Condition": xterm_model.build_model(),
        "GHTTPD Buffer Overflow on Stack": ghttpd_model.build_model(),
        "rpc.statd Format String Vulnerability": rpc_statd_model.build_model(),
    }


def all_exploit_inputs():
    """Row label → the exploit input driving its model end to end."""
    return {
        "Sendmail Signed Integer Overflow": sendmail_model.exploit_input(),
        "NULL HTTPD Heap Overflow": nullhttpd_model.exploit_input_5774(),
        "Rwall File Corruption": rwall_model.exploit_input(),
        "IIS Filename Decoding Vulnerability": iis_model.exploit_input(),
        "Xterm File Race Condition": xterm_model.exploit_input(),
        "GHTTPD Buffer Overflow on Stack": ghttpd_model.exploit_input(),
        "rpc.statd Format String Vulnerability": rpc_statd_model.exploit_input(),
    }


def all_benign_inputs():
    """Row label → a benign input that must not compromise its model."""
    return {
        "Sendmail Signed Integer Overflow": sendmail_model.benign_input(),
        "NULL HTTPD Heap Overflow": nullhttpd_model.benign_input(),
        "Rwall File Corruption": rwall_model.benign_input(),
        "IIS Filename Decoding Vulnerability": iis_model.benign_input(),
        "Xterm File Race Condition": xterm_model.benign_input(),
        "GHTTPD Buffer Overflow on Stack": ghttpd_model.benign_input(),
        "rpc.statd Format String Vulnerability": rpc_statd_model.benign_input(),
    }


def all_operation_domains():
    """Row label → operation input domains (for Lemma part 1)."""
    return {
        "Sendmail Signed Integer Overflow": sendmail_model.operation_domains(),
        "NULL HTTPD Heap Overflow": nullhttpd_model.operation_domains(),
        "Rwall File Corruption": rwall_model.operation_domains(),
        "IIS Filename Decoding Vulnerability": iis_model.operation_domains(),
        "Xterm File Race Condition": xterm_model.operation_domains(),
        "GHTTPD Buffer Overflow on Stack": ghttpd_model.operation_domains(),
        "rpc.statd Format String Vulnerability": rpc_statd_model.operation_domains(),
    }


def all_pfsm_domains():
    """Row label → pFSM object domains (for hidden-path reports)."""
    return {
        "Sendmail Signed Integer Overflow": sendmail_model.pfsm_domains(),
        "NULL HTTPD Heap Overflow": nullhttpd_model.pfsm_domains(),
        "Rwall File Corruption": rwall_model.pfsm_domains(),
        "IIS Filename Decoding Vulnerability": iis_model.pfsm_domains(),
        "Xterm File Race Condition": xterm_model.pfsm_domains(),
        "GHTTPD Buffer Overflow on Stack": ghttpd_model.pfsm_domains(),
        "rpc.statd Format String Vulnerability": rpc_statd_model.pfsm_domains(),
    }


def all_extended_models():
    """The paper's seven Table 2 models plus the six extended models
    (#5493, #3958, #1387, #2264, #2210 and the PATH-hijack case study)
    modeled in this reproduction.

    Kept separate from :func:`all_paper_models` so the Table 2 grid
    comparison stays exactly the paper's seven rows.
    """
    models = all_paper_models()
    models.update({
        "FreeBSD Signed Integer Buffer Overflow": freebsd_model.build_model(),
        "rsync Signed Array Index": rsync_model.build_model(),
        "wu-ftpd SITE EXEC Format String": wuftpd_model.build_model(),
        "icecast print_client() Format String": icecast_model.build_model(),
        "splitvt Format String Vulnerability": splitvt_model.build_model(),
        "Setuid Utility PATH Hijack": envutil_model.build_model(),
    })
    return models


def all_extended_exploit_inputs():
    """Exploit inputs for the extended model set."""
    inputs = all_exploit_inputs()
    inputs.update({
        "FreeBSD Signed Integer Buffer Overflow": freebsd_model.exploit_input(),
        "rsync Signed Array Index": rsync_model.exploit_input(),
        "wu-ftpd SITE EXEC Format String": wuftpd_model.exploit_input(),
        "icecast print_client() Format String": icecast_model.exploit_input(),
        "splitvt Format String Vulnerability": splitvt_model.exploit_input(),
        "Setuid Utility PATH Hijack": envutil_model.exploit_input(),
    })
    return inputs


def all_extended_benign_inputs():
    """Benign inputs for the extended model set."""
    inputs = all_benign_inputs()
    inputs.update({
        "FreeBSD Signed Integer Buffer Overflow": freebsd_model.benign_input(),
        "rsync Signed Array Index": rsync_model.benign_input(),
        "wu-ftpd SITE EXEC Format String": wuftpd_model.benign_input(),
        "icecast print_client() Format String": icecast_model.benign_input(),
        "splitvt Format String Vulnerability": splitvt_model.benign_input(),
        "Setuid Utility PATH Hijack": envutil_model.benign_input(),
    })
    return inputs


def all_extended_operation_domains():
    """Operation domains for the extended model set."""
    domains = all_operation_domains()
    domains.update({
        "FreeBSD Signed Integer Buffer Overflow":
            freebsd_model.operation_domains(),
        "rsync Signed Array Index": rsync_model.operation_domains(),
        "wu-ftpd SITE EXEC Format String": wuftpd_model.operation_domains(),
        "icecast print_client() Format String": icecast_model.operation_domains(),
        "splitvt Format String Vulnerability": splitvt_model.operation_domains(),
        "Setuid Utility PATH Hijack": envutil_model.operation_domains(),
    })
    return domains


def all_extended_pfsm_domains():
    """pFSM domains for the extended model set."""
    domains = all_pfsm_domains()
    domains.update({
        "FreeBSD Signed Integer Buffer Overflow":
            freebsd_model.pfsm_domains(),
        "rsync Signed Array Index": rsync_model.pfsm_domains(),
        "wu-ftpd SITE EXEC Format String": wuftpd_model.pfsm_domains(),
        "icecast print_client() Format String": icecast_model.pfsm_domains(),
        "splitvt Format String Vulnerability": splitvt_model.pfsm_domains(),
        "Setuid Utility PATH Hijack": envutil_model.pfsm_domains(),
    })
    return domains
