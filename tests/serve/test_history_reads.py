"""Historical reads come from the persisted lineage, not from decoded archives.

A stream's store keeps only its latest version resident, so every older
version the daemon serves is a lazy stub.  ``GET /streams/<s>/versions/<v>``
and ``.../versions/<v>/audit`` answer from the store's summaries: the bodies
of a demoted version are byte-identical to the ones it served while it was
the resident latest, and no read decodes a version archive.
"""

#: Small stream config that keeps the full pipeline fast.
FAST_CONFIG = {"model": "bt", "b": 0.3, "t": 0.25, "k": 2, "max_cells": 20000}
SEED_ROWS = 260


def _create(server, name, rows, config=FAST_CONFIG):
    return server.request(
        "POST", "/streams", {"name": name, "rows": rows, "config": config}
    )


def _bodies(server, number):
    detail = server.request("GET", f"/streams/census/versions/{number}")
    audit = server.request("GET", f"/streams/census/versions/{number}/audit")
    assert detail[0] == 200 and audit[0] == 200
    return detail[2], audit[2]


def test_demoted_versions_serve_the_bodies_they_served_as_latest(
    live_server, adult_rows, decoded
):
    server = live_server()
    seed, rest = adult_rows[:SEED_ROWS], adult_rows[SEED_ROWS:]
    assert _create(server, "census", seed)[0] == 201
    mutations = [
        ("append", {"rows": rest[:20]}),
        ("delete", {"positions": [0, 5, 11]}),
        ("update", {"positions": [3, 4], "rows": [seed[20], seed[21]]}),
        ("append", {"rows": rest[20:40]}),
    ]
    # While a version is the newest it is resident: these are its bodies as
    # served from the live object.
    served = [_bodies(server, 0)]
    for kind, payload in mutations:
        status, body, _ = server.request("POST", f"/streams/census/{kind}", payload)
        assert status == 200
        served.append(_bodies(server, body["version"]["version"]))

    host = server.app.registry.get("census")
    assert sum(version is not None for version in host.store._versions) == 1
    latest = len(mutations)
    for number in (0, latest // 2, latest):
        assert _bodies(server, number) == served[number]
    status, lineage, _ = server.request("GET", "/streams/census/versions")
    assert status == 200 and len(lineage["versions"]) == latest + 1
    assert decoded == []


def test_unaudited_version_is_404_after_demotion(live_server, adult_rows, decoded):
    server = live_server()
    seed, rest = adult_rows[:SEED_ROWS], adult_rows[SEED_ROWS:]
    config = {"model": "distinct-l", "l": 2, "k": 2, "skyline": [], "max_cells": 20000}
    assert _create(server, "census", seed, config=config)[0] == 201
    status, _, _ = server.request("POST", "/streams/census/append", {"rows": rest[:20]})
    assert status == 200
    status, body, _ = server.request("GET", "/streams/census/versions/0")
    assert status == 200 and "audit" not in body["version"]
    status, body, _ = server.request("GET", "/streams/census/versions/0/audit")
    assert status == 404 and "unaudited" in body["message"]
    assert decoded == []
