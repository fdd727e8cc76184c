"""Golden reports: `run --format json` stays byte-identical for fixed configs.

Each digest is the sha256 of `emit_report(run_trials(config), "json")`,
recorded before the measurement layer was rewritten; the n = 64 attack
digests were recorded when the attacks first ran above n = 16, and their
2p z draws take 11 bits from getrandbits. A refactor that changes any
sampled outcome, float sum or key order shows up here.
"""
import hashlib

import pytest

from bcsim.harness import ScenarioConfig, emit_report, run_trials

GOLDEN = {
    ("novy-honest", 6, True): "32b8651e3bf7df50549fe7c00d219253865d63589e47d938ddcd7e5e4e9ad778",
    ("novy-honest", 6, False): "19933ab56369cf57125fe79b81f4b20dda774e4cd89d3297d336cc0f553a278c",
    ("novy-attack", 6, True): "f86c0d9c947cb13e8832d2003401682ffe39c12704db54addeb96dc86b364240",
    ("novy-attack", 6, False): "0a34e0cae350dc26a7003d2d3f37d2994b96e0e42b74d7bdf6ddc813f7517d00",
    ("2p-honest", 4, True): "513169c0a749adb0e99aa5e68e36ea034c19ae83c6db5cf9d96247465cd5754b",
    ("2p-honest", 4, False): "070d1983c7db02d2aedf6c6fb79bcd2c1b072a32603f1b2d3dc4791f7381617d",
    ("2p-attack", 4, True): "31ba4bb16ec73c827a8e8816d7adfe29d3f63adc514a3516aeac466c512f920c",
    ("2p-attack", 4, False): "b9764a4ed1b952fb3f6970a4ced7b2461191bcbc644e409c7eb5132f3b82523a",
    ("novy-attack", 64, True): "99c558868a7fc5dc59ebcd7ed15fab0139c093ff8ef155bb928c66f558837aae",
    ("novy-attack", 64, False): "09b27e37ac4a5f886fdcdebde0134ec74e2d9bd42b290ced4c08a480e0e542a4",
    ("2p-attack", 64, True): "8d93d667e84c98ef6ffe0a257c5da82b6ec4bc1dd09778852aa0291c9615dfeb",
    ("2p-attack", 64, False): "2b15209b31b3bb9d8cb55769e59b68fe8db9ab202fb4393ea30aef143389a107",
}


@pytest.mark.parametrize("protocol,n,unveil", list(GOLDEN),
                         ids=[f"{p}-n{n}-{'unveil' if u else 'recover'}" for p, n, u in GOLDEN])
def test_report_digest(protocol, n, unveil):
    inputs = {"psi": (0.6, 0.8j)} if protocol.endswith("attack") else {"b": 1}
    config = ScenarioConfig(protocol=protocol, n=n, unveil=unveil, trials=300,
                            seed=20260, **inputs)
    report = emit_report(run_trials(config), "json")
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN[(protocol, n, unveil)]
