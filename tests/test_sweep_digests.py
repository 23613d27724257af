"""The identity sweep (sweep_digests.py) still runs: its three quick
sections print their known line counts."""

import sweep_digests


def test_dp_and_oracle_sections_print_their_listings(capsys):
    sweep_digests.main(["dp"])
    dp = capsys.readouterr().out.splitlines()
    sweep_digests.main(["oracle"])
    oracle = capsys.readouterr().out.splitlines()
    assert len(dp) == 75 and all(line.startswith("dp ") for line in dp)
    assert len(oracle) == 169 and all(line.startswith("oracle ") for line in oracle)


def test_see_section_prints_one_line_per_instance(capsys):
    sweep_digests.main(["see"])
    see = capsys.readouterr().out.splitlines()
    assert len(see) == len(sweep_digests.specs()) == 158
    assert all(line.startswith("see ") for line in see)
