"""Faithful models of the vulnerable applications the paper examines.

Each module ports the relevant routine of the original C program onto
the simulated substrates (``repro.memory``, ``repro.osmodel``), with the
original bug intact in the ``VULNERABLE`` variant and the paper's
prescribed checks in the patched/defended variants.  Exploits *execute*:
control-flow hijacks, file corruptions, and overflows are observable
effects, not flags.

Each app module is imported on first use of one of its names
(``from repro.apps import IisServer`` loads only ``repro.apps.iis``),
so a model that needs one constant does not load every application.
"""

import importlib

#: Public names by the submodule that defines them.
_EXPORTS = {
    "envutil": ("EnvUtilVariant", "EnvWorld", "ExecutionRecord",
                "SetuidUtility", "make_env_world", "plant_trojan"),
    "freebsd_syscall": ("FreebsdKernel", "FreebsdVariant", "MAX_REQUEST",
                        "SyscallResult", "craft_cred_overwrite"),
    "rsync_daemon": ("DispatchResult", "RsyncDaemon", "RsyncVariant",
                     "TABLE_SIZE", "craft_negative_opcode"),
    "wuftpd": ("FtpReply", "WuFtpd", "WuFtpdVariant",
               "craft_site_exec_exploit"),
    "icecast": ("ClientResult", "Icecast", "IcecastVariant",
                "craft_expansion_smash"),
    "splitvt": ("RefreshResult", "Splitvt", "SplitvtVariant", "TitleResult",
                "craft_handler_overwrite"),
    "ghttpd": ("Ghttpd", "GhttpdVariant", "ServeResult", "craft_stack_smash"),
    "iis": ("CgiOutcome", "IisServer", "IisVariant", "SCRIPTS_ROOT",
            "percent_decode"),
    "nullhttpd": ("NullHttpd", "NullHttpdVariant", "RECV_CHUNK",
                  "RequestOutcome", "craft_unlink_body"),
    "registry": ("APP_REGISTRY", "AppRecord", "by_bugtraq_id"),
    "rpc_statd": ("NotifyResult", "RpcStatd", "StatdVariant",
                  "craft_format_exploit"),
    "rwalld": ("BroadcastReport", "RwallDaemon", "RwallVariant",
               "RwallWorld", "add_utmp_entry", "make_rwall_world",
               "passwd_corrupted"),
    "sendmail": ("Sendmail", "SendmailVariant", "TTflagResult",
                 "craft_got_exploit"),
    "xterm": ("XtermLogger", "XtermVariant", "XtermWorld",
              "build_race_scheduler"),
}

#: Package names that differ from the name inside their submodule.
_ALIASES = {"make_env_world": "make_world", "make_rwall_world": "make_world"}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__),
                    _ALIASES.get(name, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
