"""The lines the digest scripts print, pinned.

``_search_digest.py`` pins what the canonical search does on its corpus,
and ``_cli_digest.py`` the command line's bytes.  Of the latter, the
orders, recovery and twin corpora run here; the main corpus takes several
seconds and stays a manual run (see the script's docstring).
"""

from __future__ import annotations

import _cli_digest
import _search_digest

from blowups import equivalence


def test_search_digest(capsys):
    refine = equivalence._refine
    _search_digest.main()
    assert equivalence._refine is refine
    assert capsys.readouterr().out == (
        "1292 structures, 6640 refinements, 1681 automorphisms, "
        "f6f17de904c83c9e50f815465e1eeb4d34a92036f8bcc77b84c1a55f874febbe\n"
    )


def test_cli_digest_orders_recovery_and_twins(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    orders, recovery, twins = _cli_digest.Digest(), _cli_digest.Digest(), _cli_digest.Digest()
    _cli_digest.orders_commands(orders)
    _cli_digest.recovery_commands(recovery)
    _cli_digest.twin_commands(twins)
    assert orders.lines()[-1] == 'da67c069f447126ec66183e3798774531bd625b80e5e2088a50fba0320a347fb 18 {"0":18}'
    assert recovery.lines() == [
        "recover 41e54196a02aca66e3a4eb1bff6d31b3f95b644c824a1dcd2ffaf11962ca2eaf 36",
        "recover-all e171feb386b8ebb01ee30e8c05e5aa7e4647ad6a512cc167425136e7b17270d1 36",
        '68d349932060d69b3ffb91c1ca98d0a3463ee9fe1517688e9d000a4078ae951b 72 {"0":20,"2":32,"3":20}',
    ]
    assert twins.lines() == [
        "canon 8f9b5b3d8c663f14d1644b7d8c4c1353fb7b6cbb3dc610f3df39a38f972ad899 24",
        "compat c362a03138f463980278bdb1c091410f5cb094a694850a0b8a035f47a2bbb081 24",
        "equiv ea3450a39e32c294dab1ae622c1e7fb36f29a8e843f5b66f07e923a321be71fa 12",
        "orbits 44ae3427102763c801b8c2fec11b7e41d82128077f1a31cd56a60c50b236c702 12",
        '9bfe67926f951050b659a759b2060ae628aa501013984f7d71e273458951befa 72 {"0":72}',
    ]
