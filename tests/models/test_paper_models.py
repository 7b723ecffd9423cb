"""Per-figure model tests: structure, exploit traversal, fixes."""

import pytest

from repro.apps.nullhttpd import NullHttpdVariant
from repro.core import hidden_path_report, minimal_foil_points
from repro.models import (
    ghttpd_model,
    iis_model,
    nullhttpd_model,
    rpc_statd_model,
    rwall_model,
    sendmail_model,
    xterm_model,
)


class TestSendmailFigure3:
    def test_structure(self):
        model = sendmail_model.build_model()
        assert len(model.operations) == 2
        assert model.pfsm_count == 3
        assert model.bugtraq_ids == (3163,)
        assert len(model.gates) == 1

    def test_wrapping_exploit_uses_all_three(self):
        model = sendmail_model.build_model()
        result = model.run(sendmail_model.wrapping_exploit_input())
        assert result.hidden_path_count == 3

    def test_benign(self):
        model = sendmail_model.build_model()
        assert not model.is_compromised_by(sendmail_model.benign_input())

    def test_patched(self):
        model = sendmail_model.build_model(patched=True)
        assert not model.is_compromised_by(sendmail_model.exploit_input())
        assert model.run(sendmail_model.benign_input()).compromised  # benign ok

    def test_hidden_path_domains(self):
        findings = hidden_path_report(
            sendmail_model.build_model(), sendmail_model.pfsm_domains()
        )
        assert {f.pfsm_name for f in findings} == {"pFSM1", "pFSM2", "pFSM3"}

    def test_gate_semantics(self):
        model = sendmail_model.build_model()
        result = model.run(sendmail_model.exploit_input())
        op2_obj = result.operation_results[1].outcomes[0].obj
        assert op2_obj == {"addr_setuid_unchanged": False}


class TestNullHttpdFigure4:
    def test_structure(self):
        model = nullhttpd_model.build_model()
        assert len(model.operations) == 3
        assert model.pfsm_count == 4
        assert model.bugtraq_ids == (5774, 6255)

    def test_5774_blocked_by_v051(self):
        model = nullhttpd_model.build_model(NullHttpdVariant.V0_5_1)
        assert not model.is_compromised_by(nullhttpd_model.exploit_input_5774())

    def test_6255_on_v051(self):
        model = nullhttpd_model.build_model(NullHttpdVariant.V0_5_1)
        result = model.run(nullhttpd_model.exploit_input_6255())
        assert result.compromised
        hidden = {e.subject for e in result.trace.hidden_path_steps()}
        assert "pFSM2" in hidden  # the newly discovered missing check
        assert "pFSM1" not in hidden  # contentLen check now present

    def test_6255_blocked_by_fixed(self):
        model = nullhttpd_model.build_model(NullHttpdVariant.FIXED)
        assert not model.is_compromised_by(nullhttpd_model.exploit_input_6255())

    def test_safe_unlink_blocks_everything(self):
        model = nullhttpd_model.build_model(NullHttpdVariant.V0_5,
                                            safe_unlink=True)
        assert not model.is_compromised_by(nullhttpd_model.exploit_input_5774())
        assert not model.is_compromised_by(nullhttpd_model.exploit_input_6255())

    def test_got_check_blocks_everything(self):
        model = nullhttpd_model.build_model(NullHttpdVariant.V0_5,
                                            check_got=True)
        assert not model.is_compromised_by(nullhttpd_model.exploit_input_5774())

    def test_benign(self):
        for variant in NullHttpdVariant:
            model = nullhttpd_model.build_model(variant)
            assert not model.is_compromised_by(nullhttpd_model.benign_input())

    def test_foil_points_5774(self):
        model = nullhttpd_model.build_model(NullHttpdVariant.V0_5)
        points = minimal_foil_points(model,
                                     nullhttpd_model.exploit_input_5774())
        assert {p.pfsm_name for p in points} == \
            {"pFSM1", "pFSM2", "pFSM3", "pFSM4"}

    def test_foil_points_6255_exclude_pfsm1(self):
        # The #6255 exploit survives a correct contentLen check: fixing
        # pFSM1 alone cannot foil it.
        model = nullhttpd_model.build_model(NullHttpdVariant.V0_5)
        points = minimal_foil_points(model,
                                     nullhttpd_model.exploit_input_6255())
        assert "pFSM1" not in {p.pfsm_name for p in points}
        assert "pFSM2" in {p.pfsm_name for p in points}


class TestXtermFigure5:
    def test_structure(self):
        model = xterm_model.build_model()
        assert len(model.operations) == 1
        assert model.pfsm_count == 2

    def test_exploit(self):
        model = xterm_model.build_model()
        result = model.run(xterm_model.exploit_input())
        assert result.compromised
        assert result.hidden_path_count == 1

    def test_no_permission_foiled_at_pfsm1(self):
        model = xterm_model.build_model()
        result = model.run({
            "has_write_permission": False,
            "is_symlink_at_check": False,
            "symlink_created_in_window": True,
        })
        assert not result.compromised
        assert result.foiled_at == "pFSM1"

    def test_recheck_forecloses(self):
        model = xterm_model.build_model(recheck=True)
        assert not model.is_compromised_by(xterm_model.exploit_input())


class TestRwallFigure6:
    def test_structure(self):
        model = rwall_model.build_model()
        assert len(model.operations) == 2
        assert model.pfsm_count == 2

    def test_either_fix_forecloses(self):
        exploit = rwall_model.exploit_input()
        assert not rwall_model.build_model(
            utmp_root_only=True).is_compromised_by(exploit)
        assert not rwall_model.build_model(
            type_check=True).is_compromised_by(exploit)

    def test_root_with_terminal_benign(self):
        model = rwall_model.build_model()
        assert not model.is_compromised_by(rwall_model.benign_input())

    def test_entry_is_terminal(self):
        assert rwall_model.entry_is_terminal("pts/25")
        assert not rwall_model.entry_is_terminal("../etc/passwd")


class TestIisFigure7:
    def test_structure(self):
        model = iis_model.build_model()
        assert model.pfsm_count == 1
        assert model.bugtraq_ids == (2708,)

    def test_impl_rej_exists_but_wrong(self):
        # Unlike the other studies, IIS *does* check — the wrong thing.
        model = iis_model.build_model()
        pfsm = model.operations[0].pfsms[0]
        assert pfsm.has_check
        assert pfsm.takes_hidden_path("..%252fwinnt/cmd.exe")

    def test_single_encoding_foiled(self):
        model = iis_model.build_model()
        result = model.run("..%2fwinnt/cmd.exe")
        assert not result.compromised
        assert result.foiled_at == "pFSM1"

    def test_patched(self):
        model = iis_model.build_model(patched=True)
        assert not model.is_compromised_by(iis_model.exploit_input())
        assert model.run(iis_model.benign_input()).compromised

    def test_hidden_witnesses_are_double_encoded(self):
        findings = hidden_path_report(iis_model.build_model(),
                                      iis_model.pfsm_domains())
        (finding,) = findings
        assert all("%25" in w for w in finding.witnesses)


class TestGhttpdModel:
    def test_exploit_and_fixes(self):
        exploit = ghttpd_model.exploit_input()
        assert ghttpd_model.build_model().is_compromised_by(exploit)
        assert not ghttpd_model.build_model(
            length_check=True).is_compromised_by(exploit)
        assert not ghttpd_model.build_model(
            return_protection=True).is_compromised_by(exploit)

    def test_boundary(self):
        model = ghttpd_model.build_model()
        assert not model.is_compromised_by(
            {"message": b"A" * ghttpd_model.LOG_BUFFER_SIZE})
        assert model.is_compromised_by(
            {"message": b"A" * (ghttpd_model.LOG_BUFFER_SIZE + 1)})

class TestStatdModel:
    def test_exploit_and_fixes(self):
        exploit = rpc_statd_model.exploit_input()
        assert rpc_statd_model.build_model().is_compromised_by(exploit)
        assert not rpc_statd_model.build_model(
            sanitize=True).is_compromised_by(exploit)

    def test_read_only_directives_not_a_compromise(self):
        # %x leaks but does not redirect control in this model.
        model = rpc_statd_model.build_model()
        result = model.run({"filename": b"%x%x%x"})
        # pFSM1 hidden (directives present), but the gate carries
        # return_address_unchanged=True, so pFSM2 takes SPEC_ACPT.
        assert result.hidden_path_count == 1

    def test_benign(self):
        model = rpc_statd_model.build_model()
        assert not model.is_compromised_by(rpc_statd_model.benign_input())
