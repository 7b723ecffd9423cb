"""The clock-free lease ledger: claims, renewals, reaping, bounded
retries — and the hypothesis suite proving any claim interleaving
across any number of consumers converges to the same merged result."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ChunkLedger


def _ledger(n=4, **kwargs):
    return ChunkLedger({cid: f"payload-{cid}" for cid in range(n)},
                       **kwargs)


def _outcome(chunk_id):
    """The canonical (deterministic) result of executing one chunk."""
    return ("result", chunk_id)


class TestClaimCycle:
    def test_claims_are_issued_in_chunk_order(self):
        ledger = _ledger(3)
        order = [ledger.claim("w", now=0.0, ttl=5.0).chunk_id
                 for _ in range(3)]
        assert order == [0, 1, 2]
        assert ledger.claim("w", now=0.0, ttl=5.0) is None

    def test_complete_discharges_lease_and_reaches_done(self):
        ledger = _ledger(2)
        for _ in range(2):
            lease = ledger.claim("w", now=0.0, ttl=5.0)
            assert ledger.complete(lease.chunk_id,
                                   _outcome(lease.chunk_id))
        assert ledger.done and not ledger.leases()
        assert ledger.outcomes == {0: _outcome(0), 1: _outcome(1)}

    def test_duplicate_complete_is_dropped(self):
        ledger = _ledger(1)
        lease = ledger.claim("a", now=0.0, ttl=5.0)
        assert ledger.complete(lease.chunk_id, _outcome(0)) is True
        assert ledger.complete(lease.chunk_id, ("late", 0)) is False
        assert ledger.outcomes[0] == _outcome(0)  # first writer wins

    def test_payload_and_attempt_lookup(self):
        ledger = _ledger(2)
        assert ledger.payload(1) == "payload-1"
        assert ledger.attempt(1) == 0


class TestExpiryAndRecovery:
    def test_expired_lease_is_reclaimed_to_the_front(self):
        ledger = _ledger(3)
        first = ledger.claim("dying", now=0.0, ttl=1.0)
        assert first.chunk_id == 0
        reaped = ledger.reap(now=2.0)
        assert reaped == [(0, "dying", "requeued")]
        # Reclaimed work restarts before fresh work.
        assert ledger.claim("other", now=2.0, ttl=5.0).chunk_id == 0

    def test_released_chunk_is_requeued_to_the_front(self):
        ledger = _ledger(3)
        first = ledger.claim("crashed", now=0.0, ttl=5.0)
        assert ledger.release(first.chunk_id) == "requeued"
        assert not ledger.leases()
        # The released chunk is claimed again before any fresh chunk.
        order = [ledger.claim("w", now=0.0, ttl=5.0).chunk_id
                 for _ in range(3)]
        assert order == [0, 1, 2]
        assert ledger.attempt(0) == 1

    def test_renew_pushes_the_deadline_out(self):
        ledger = _ledger(1)
        ledger.claim("busy", now=0.0, ttl=1.0)
        assert ledger.renew("busy", ["L1"], now=0.9, ttl=1.0) == 1
        assert ledger.reap(now=1.5) == []  # renewed past the old expiry
        assert ledger.reap(now=2.5)  # but not forever

    def test_release_claimant_reclaims_everything_held(self):
        ledger = _ledger(3)
        ledger.claim("dead", now=0.0, ttl=5.0)
        ledger.claim("dead", now=0.0, ttl=5.0)
        ledger.claim("alive", now=0.0, ttl=5.0)
        assert sorted(ledger.release_claimant("dead")) == \
            [(0, "requeued"), (1, "requeued")]
        assert [lease.claimant for lease in ledger.leases()] == ["alive"]

    def test_retries_are_bounded_then_chunk_fails(self):
        ledger = _ledger(1, max_retries=2)
        dispositions = []
        for _ in range(3):
            lease = ledger.claim("flaky", now=0.0, ttl=5.0)
            assert lease is not None
            dispositions.append(ledger.release(lease.chunk_id))
        assert dispositions == ["requeued", "requeued", "exhausted"]
        assert ledger.failed == [0] and ledger.done
        assert ledger.claim("w", now=0.0, ttl=5.0) is None

    def test_late_result_after_reclaim_still_counts_once(self):
        ledger = _ledger(1)
        ledger.claim("slow", now=0.0, ttl=1.0)
        ledger.reap(now=2.0)  # requeued; "slow" no longer holds it
        # The original claimant's result arrives late — deterministic
        # re-execution makes it identical, so it is accepted once and
        # the stale queue entry is discharged at the next claim.
        assert ledger.complete(0, _outcome(0)) is True
        assert ledger.claim("other", now=2.0, ttl=5.0) is None
        assert ledger.done


class TestRenewReapRaces:
    """The heartbeat/reaper boundary races: a renewal landing exactly at
    the old deadline, a claimant released while its result is landing,
    and a reaped chunk's original result arriving after re-execution."""

    def test_heartbeat_exactly_at_expiry_keeps_the_lease(self):
        ledger = _ledger(1)
        ledger.claim("steady", now=0.0, ttl=1.0)
        # The renewal and the reaper both run at t == deadline; the
        # coordinator applies the heartbeat first, so the lease lives.
        assert ledger.renew("steady", ["L1"], now=1.0, ttl=1.0) == 1
        assert ledger.reap(now=1.0) == []
        assert ledger.leases()[0].deadline == 2.0

    def test_heartbeat_renews_only_the_leases_it_names(self):
        # The claimant never received the second claim's response, so
        # its heartbeats name only the first lease: the orphan expires
        # on schedule while the held lease lives on.
        ledger = _ledger(2)
        held = ledger.claim("w", now=0.0, ttl=1.0)
        lost = ledger.claim("w", now=0.0, ttl=1.0)
        for now in (0.5, 1.0, 1.5):
            assert ledger.renew("w", [held.token], now=now, ttl=1.0) == 1
        assert ledger.reap(now=1.5) == [(lost.chunk_id, "w", "requeued")]
        assert [lease.token for lease in ledger.leases()] == [held.token]
        again = ledger.claim("w", now=1.5, ttl=1.0)
        assert again.chunk_id == lost.chunk_id and again.attempt == 1

    def test_renew_ignores_another_claimants_token(self):
        ledger = _ledger(1)
        lease = ledger.claim("owner", now=0.0, ttl=1.0)
        assert ledger.renew("intruder", [lease.token], now=0.5,
                            ttl=1.0) == 0
        assert ledger.reap(now=1.0) == [(0, "owner", "requeued")]

    def test_reap_at_exact_deadline_without_renew_reclaims(self):
        # Expiry is inclusive (deadline <= now): a claimant whose last
        # heartbeat is a full TTL old is dead, not "just in time".
        ledger = _ledger(1)
        ledger.claim("silent", now=0.0, ttl=1.0)
        assert ledger.reap(now=1.0) == [(0, "silent", "requeued")]

    def test_release_claimant_racing_complete_keeps_the_result(self):
        ledger = _ledger(2)
        ledger.claim("w", now=0.0, ttl=5.0)
        ledger.claim("w", now=0.0, ttl=5.0)
        # The result for chunk 0 lands just before the disconnect
        # sweep: only the unfinished chunk is requeued, the finished
        # one is not re-executed and burns no retry.
        assert ledger.complete(0, _outcome(0))
        assert ledger.release_claimant("w") == [(1, "requeued")]
        assert ledger.release(0) == "absent"
        assert ledger.attempt(0) == 0
        assert ledger.outcomes[0] == _outcome(0)

    def test_reap_then_late_result_first_writer_wins(self):
        ledger = _ledger(1)
        ledger.claim("slow", now=0.0, ttl=1.0)
        assert ledger.reap(now=2.0) == [(0, "slow", "requeued")]
        # The chunk is re-claimed and finished by another worker ...
        lease = ledger.claim("fast", now=2.0, ttl=5.0)
        assert lease.chunk_id == 0 and lease.attempt == 1
        assert ledger.complete(0, _outcome(0)) is True
        # ... then the reaped claimant's copy finally arrives: dropped,
        # and the recorded outcome is untouched.
        assert ledger.complete(0, ("stale", 0)) is False
        assert ledger.outcomes[0] == _outcome(0)
        assert ledger.done and not ledger.failed

    @settings(max_examples=60, deadline=None)
    @given(gaps=st.lists(st.floats(min_value=0.01, max_value=0.99),
                         min_size=1, max_size=30))
    def test_heartbeats_inside_the_ttl_never_lose_the_lease(self, gaps):
        """Property: however irregular the cadence, renewals spaced
        strictly under the TTL keep the lease through every reap —
        and one full TTL of silence always loses it."""
        ledger = _ledger(1)
        ledger.claim("steady", now=0.0, ttl=1.0)
        now = 0.0
        for gap in gaps:
            now += gap
            assert ledger.reap(now) == []
            assert ledger.renew("steady", ["L1"], now=now,
                                ttl=1.0) == 1
        assert ledger.reap(now + 0.99) == []
        assert ledger.reap(now + 1.0) == [(0, "steady", "requeued")]


#: Schedule steps the interleaving suite draws from: which consumer
#: acts, and what it does.
_STEPS = st.lists(
    st.tuples(st.sampled_from(["claim", "finish", "die", "expire"]),
              st.integers(min_value=0, max_value=3)),
    max_size=50)


class TestInterleavingDeterminism:
    """Satellite: any interleaving of claims/completions/deaths across N
    consumers yields the same merged result set, in the same order."""

    @settings(max_examples=120, deadline=None)
    @given(schedule=_STEPS)
    def test_any_schedule_converges_to_canonical_results(self, schedule):
        chunk_ids = range(6)
        ledger = ChunkLedger({cid: f"p{cid}" for cid in chunk_ids},
                             max_retries=10_000)  # nothing exhausts
        now = 0.0
        held = {w: [] for w in range(4)}
        for op, w in schedule:
            worker = f"w{w}"
            if op == "claim":
                lease = ledger.claim(worker, now=now, ttl=3.0)
                if lease is not None:
                    held[w].append(lease.chunk_id)
            elif op == "finish" and held[w]:
                # Completes its oldest chunk — possibly one whose lease
                # was already reclaimed (the late-duplicate path).
                chunk_id = held[w].pop(0)
                ledger.complete(chunk_id, _outcome(chunk_id))
            elif op == "die":
                ledger.release_claimant(worker)
                held[w] = []
            elif op == "expire":
                now += 10.0
                ledger.reap(now)
        # Whatever happened, a surviving consumer drains the rest.
        while not ledger.done:
            lease = ledger.claim("finisher", now=now, ttl=3.0)
            if lease is None:
                now += 10.0
                ledger.reap(now)
                continue
            ledger.complete(lease.chunk_id, _outcome(lease.chunk_id))
        assert not ledger.failed
        # Deterministic merge: every chunk's canonical outcome, no
        # matter who executed it, how often, or in what order.
        assert dict(ledger.outcomes) == \
            {cid: _outcome(cid) for cid in chunk_ids}
