"""Tests for the extended model set (#5493, #3958, #1387) and the
extended accessors."""

import pytest

from repro.core import (
    check_lemma_part1,
    check_lemma_part2,
    hidden_path_report,
    minimal_foil_points,
)
from repro.models import (
    all_extended_benign_inputs,
    all_extended_exploit_inputs,
    all_extended_models,
    all_extended_operation_domains,
    all_extended_pfsm_domains,
    freebsd_model,
    rsync_model,
    wuftpd_model,
)

EXTENDED_ONLY = [
    "FreeBSD Signed Integer Buffer Overflow",
    "rsync Signed Array Index",
    "wu-ftpd SITE EXEC Format String",
    "icecast print_client() Format String",
    "splitvt Format String Vulnerability",
]


class TestFreebsdModel:
    def test_exploit(self):
        model = freebsd_model.build_model()
        result = model.run(freebsd_model.exploit_input())
        assert result.compromised
        assert result.hidden_path_count == 2

    def test_benign(self):
        model = freebsd_model.build_model()
        assert not model.is_compromised_by(freebsd_model.benign_input())

    def test_patched(self):
        model = freebsd_model.build_model(patched=True)
        assert not model.is_compromised_by(freebsd_model.exploit_input())

    def test_foil_points(self):
        model = freebsd_model.build_model()
        points = minimal_foil_points(model, freebsd_model.exploit_input())
        assert {p.pfsm_name for p in points} == {"pFSM1", "pFSM2"}

    def test_hidden_report(self):
        findings = hidden_path_report(freebsd_model.build_model(),
                                      freebsd_model.pfsm_domains())
        assert {f.pfsm_name for f in findings} == {"pFSM1", "pFSM2"}


class TestRsyncModel:
    def test_exploit(self):
        model = rsync_model.build_model()
        result = model.run(rsync_model.exploit_input())
        assert result.compromised
        assert result.hidden_path_count == 2

    def test_either_fix_forecloses(self):
        exploit = rsync_model.exploit_input()
        assert not rsync_model.build_model(
            patched=True).is_compromised_by(exploit)
        assert not rsync_model.build_model(
            guarded=True).is_compromised_by(exploit)

    def test_benign(self):
        assert not rsync_model.build_model().is_compromised_by(
            rsync_model.benign_input()
        )

    def test_overlarge_opcode_foiled(self):
        model = rsync_model.build_model()
        result = model.run({"opcode": 100})
        assert not result.compromised
        assert result.foiled_at == "pFSM1"


class TestWuftpdModel:
    def test_exploit(self):
        model = wuftpd_model.build_model()
        result = model.run(wuftpd_model.exploit_input())
        assert result.compromised
        assert result.hidden_path_count == 2

    def test_sanitize_forecloses(self):
        assert not wuftpd_model.build_model(
            sanitize=True).is_compromised_by(wuftpd_model.exploit_input())

    def test_benign(self):
        assert not wuftpd_model.build_model().is_compromised_by(
            wuftpd_model.benign_input()
        )

    def test_leak_only_not_compromise(self):
        model = wuftpd_model.build_model()
        result = model.run({"args": b"%x%x"})
        assert result.hidden_path_count == 1  # directive, but no %n write


class TestExtendedAccessors:
    @pytest.mark.parametrize("label", EXTENDED_ONLY)
    def test_exploits_and_benigns(self, label):
        model = all_extended_models()[label]
        assert model.is_compromised_by(all_extended_exploit_inputs()[label])
        assert not model.is_compromised_by(all_extended_benign_inputs()[label])

    @pytest.mark.parametrize("label", EXTENDED_ONLY)
    def test_lemma_holds(self, label):
        model = all_extended_models()[label]
        exploit = all_extended_exploit_inputs()[label]
        domains = all_extended_operation_domains()[label]
        assert check_lemma_part2(model, exploit)
        for operation in model.operations:
            assert check_lemma_part1(operation, domains[operation.name])

    @pytest.mark.parametrize("label", EXTENDED_ONLY)
    def test_pfsm_domains_find_hidden_paths(self, label):
        model = all_extended_models()[label]
        findings = hidden_path_report(model,
                                      all_extended_pfsm_domains()[label])
        assert findings
