"""The serve edit stream is a pure function of the seed, with the intended mix."""

from collections import Counter

from perfbench import edits


def test_same_seed_same_push_list():
    first, second = edits.edit_stream(7, 3), edits.edit_stream(7, 3)
    assert first == second
    assert edits.stream_digest(first) == edits.stream_digest(second)


def test_different_seeds_and_parts_differ():
    digests = {edits.stream_digest(edits.edit_stream(seed, 1, part)) for seed in (1, 2) for part in (0, 1)}
    assert len(digests) == 4


def test_stream_never_runs_out_and_extends_by_whole_blocks():
    stream = edits.EditStream(9)
    assert stream[1000] == edits.edit_stream(9, 26)[1000]
    assert len(stream.pushes) % (2 * edits.BLOCK) == 0
    assert stream.pushes == edits.edit_stream(9, len(stream.pushes) // (2 * edits.BLOCK))


def test_every_composed_network_is_listed():
    listed = set(edits.networks())
    assert len(listed) == len(edits.networks())
    assert {push["network"] for push in edits.edit_stream(11, 8)} <= listed


def test_pushes_come_in_apply_and_rollback_pairs():
    pushes = edits.edit_stream(3, 4)
    assert all(push["network"] == edits.BASE for push in pushes[1::2])
    assert all(apply["edit"] == revert["edit"] for apply, revert in zip(pushes[::2], pushes[1::2]))


def test_every_block_has_the_fixed_mix():
    pushes = edits.edit_stream(5, 4)
    size = 2 * edits.BLOCK
    for start in range(0, len(pushes), size):
        kinds = Counter(push["edit"] for push in pushes[start:start + size])
        assert kinds == Counter({kind: 2 * count for kind, count in edits.KIND_COUNTS})
    shares = {kind: 2 * count / size for kind, count in edits.KIND_COUNTS}
    assert shares == {"filter": 0.65, "announce": 0.15, "drain": 0.15, "loop": 0.05}


def test_drains_push_snapshots_and_other_edits_overlay_their_devices():
    for push in edits.edit_stream(4, 4):
        payload = push["payload"]
        if push["edit"] == "drain":
            assert set(payload) >= {"topology", "config"}
        else:
            assert len(payload["devices"]) == (2 if push["edit"] == "loop" else 1)
