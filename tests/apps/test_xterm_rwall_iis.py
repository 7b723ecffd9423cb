"""xterm race, rwall corruption, and IIS decoding application tests."""

import pytest

from repro.apps import (
    IisServer,
    IisVariant,
    RwallDaemon,
    RwallVariant,
    XtermVariant,
    add_utmp_entry,
    build_race_scheduler,
    make_rwall_world,
    passwd_corrupted,
    percent_decode,
)
from repro.apps.xterm import LOG_MESSAGE, make_world, security_violated
from repro.osmodel import ROOT, User


class TestXtermRace:
    def test_sequential_is_safe(self):
        scheduler = build_race_scheduler(XtermVariant.VULNERABLE)
        assert not scheduler.run_sequential().violated

    def test_nofollow_forecloses(self):
        analysis = build_race_scheduler(XtermVariant.PATCHED_NOFOLLOW).explore()
        assert not analysis.has_race

    def test_recheck_forecloses(self):
        analysis = build_race_scheduler(XtermVariant.PATCHED_RECHECK).explore()
        assert not analysis.has_race

    def test_patched_still_logs_normally(self):
        scheduler = build_race_scheduler(XtermVariant.PATCHED_NOFOLLOW)
        result = scheduler.run_sequential()
        # Victim completed before the attacker ran: the log got written.
        log_inode = result.world.fs.lookup("/usr/tom/x",
                                           follow_symlinks=False)
        # After the attacker's swap the original inode is unlinked, but
        # the write happened first in sequential order.
        assert not result.violated

    def test_violation_writes_message_to_passwd(self):
        analysis = build_race_scheduler(XtermVariant.VULNERABLE).explore()
        world = analysis.violations[0].world
        assert LOG_MESSAGE in bytes(world.fs.lookup("/etc/passwd").data)

    def test_world_initial_state(self):
        world = make_world()
        assert world.fs.exists("/usr/tom/x")
        assert not security_violated(world)


class TestRwall:
    @pytest.fixture
    def mallory(self):
        return User.regular("mallory", 1001)

    def test_vulnerable_full_chain(self, mallory):
        world = make_rwall_world(RwallVariant.VULNERABLE)
        assert add_utmp_entry(world, mallory, "../etc/passwd")
        report = RwallDaemon(world).broadcast(b"attacker::0:0::/:/bin/sh\n")
        assert report.wrote_non_terminal
        assert passwd_corrupted(world, b"attacker::0:0::/:/bin/sh\n")

    def test_broadcast_reaches_terminals(self, mallory):
        world = make_rwall_world(RwallVariant.VULNERABLE)
        report = RwallDaemon(world).broadcast(b"hello\n")
        assert "/dev/pts/25" in report.delivered_to
        assert "/dev/pts/26" in report.delivered_to
        terminal = world.fs.lookup("/dev/pts/25")
        assert terminal.terminal_output == [b"hello\n"]

    def test_perms_fix_blocks_entry(self, mallory):
        world = make_rwall_world(RwallVariant.PATCHED_PERMS)
        assert not add_utmp_entry(world, mallory, "../etc/passwd")
        report = RwallDaemon(world).broadcast(b"msg\n")
        assert not report.wrote_non_terminal

    def test_perms_fix_allows_root_maintenance(self):
        world = make_rwall_world(RwallVariant.PATCHED_PERMS)
        assert add_utmp_entry(world, ROOT, "pts/26")

    def test_typecheck_fix_rejects_non_terminal(self, mallory):
        world = make_rwall_world(RwallVariant.PATCHED_TYPECHECK)
        add_utmp_entry(world, mallory, "../etc/passwd")
        report = RwallDaemon(world).broadcast(b"msg\n")
        assert "../etc/passwd" in report.rejected
        assert not passwd_corrupted(world, b"msg\n")

    def test_typecheck_still_delivers_to_terminals(self, mallory):
        world = make_rwall_world(RwallVariant.PATCHED_TYPECHECK)
        add_utmp_entry(world, mallory, "../etc/passwd")
        report = RwallDaemon(world).broadcast(b"msg\n")
        assert set(report.delivered_to) == {"/dev/pts/25", "/dev/pts/26"}

    def test_utmp_entries_parsed(self):
        world = make_rwall_world()
        assert RwallDaemon(world).utmp_entries() == ["pts/25", "pts/26"]

    def test_missing_entry_rejected_not_fatal(self, mallory):
        world = make_rwall_world(RwallVariant.VULNERABLE)
        add_utmp_entry(world, mallory, "pts/99")  # nonexistent terminal
        report = RwallDaemon(world).broadcast(b"msg\n")
        assert "pts/99" in report.rejected


class TestPercentDecode:
    def test_single_escape(self):
        assert percent_decode("%2f") == "/"

    def test_double_encoding_one_pass(self):
        assert percent_decode("..%252f") == "..%2f"

    def test_double_encoding_two_passes(self):
        assert percent_decode(percent_decode("..%252f")) == "../"

    def test_malformed_passthrough(self):
        assert percent_decode("%zz") == "%zz"
        assert percent_decode("100%") == "100%"

    def test_plain_unchanged(self):
        assert percent_decode("tools/query.exe") == "tools/query.exe"

    def test_uppercase_hex(self):
        assert percent_decode("%2F") == "/"


class TestIis:
    def test_clean_request_served(self):
        outcome = IisServer().handle_cgi_request("tools/query.exe")
        assert outcome.accepted
        assert outcome.executed_path == "/wwwroot/scripts/tools/query.exe"
        assert not outcome.escaped_root

    def test_direct_traversal_rejected(self):
        outcome = IisServer().handle_cgi_request("../winnt/cmd.exe")
        assert not outcome.accepted

    def test_single_encoding_rejected(self):
        # "..%2f" decodes to "../" in the FIRST pass: the check sees it.
        outcome = IisServer().handle_cgi_request("..%2fwinnt/cmd.exe")
        assert not outcome.accepted

    def test_absolute_path_rejected(self):
        assert not IisServer().handle_cgi_request("/winnt/cmd.exe").accepted

    def test_patched_rejects_double_encoding(self):
        outcome = IisServer(IisVariant.PATCHED).handle_cgi_request(
            "..%252fwinnt/cmd.exe"
        )
        assert not outcome.accepted

    def test_patched_rejects_triple_encoding(self):
        outcome = IisServer(IisVariant.PATCHED).handle_cgi_request(
            "..%25252fwinnt/cmd.exe"
        )
        assert not outcome.accepted

    def test_patched_serves_clean(self):
        assert IisServer(IisVariant.PATCHED).handle_cgi_request(
            "tools/query.exe"
        ).accepted

    def test_spec_vs_impl_divergence(self):
        nimda = "..%252fwinnt/cmd.exe"
        assert IisServer.impl_accepts(nimda)
        assert not IisServer.spec_safe(nimda)

    def test_spec_and_impl_agree_on_clean(self):
        clean = "tools/query.exe"
        assert IisServer.impl_accepts(clean) and IisServer.spec_safe(clean)
