"""The regression oracle as a test: the six short runs of output_digests.py
must write files with exactly these sha256 digests, at any thread count.

A change that alters results on purpose (say, a different floating-point
summation order) updates EXPECTED and says so in CHANGES.md.
"""

import pytest

from eaudeqn import rundir
from output_digests import CONFIGS, digest_lines

EXPECTED = [
    "dqn log.csv 4bf06c8c5ac1f7f7b5602bd07edb558fe22159628e8a48a0f43830a55d435e38",
    "dqn events.jsonl a96edd77c33d14f4ea2c723c404f99939035d3c659944497895e71d3e0fa099c",
    "dqn checkpoint.ckpt 996354ee073ddfd194d2dcd31f58948d781472a24d127ce84a6901f521bb09aa",
    "polyprune_dqn log.csv 383f79a6d5f16b90c607b8a1860af744a360fc1df7bc76815620c6f17ee6ca2f",
    "polyprune_dqn events.jsonl 861dcd807be50ae7cf81b0e0c1e5c3e653e5e85152f995722fab2862582ce928",
    "polyprune_dqn checkpoint.ckpt ba5091a3cf6c1744d22f76c46c1e67464edc3368bf91925b66dbe2248f1f93ed",
    "eaude_dqn log.csv 6e4465987b70fcb85b38017ef9105492ce04f6ca1ad6e99cb66a93b173d25532",
    "eaude_dqn events.jsonl 43a02db24a894a2821b00ae4228db7ec0a6fb95d38b92b45aecb43f40d5c8641",
    "eaude_dqn checkpoint.ckpt 373d4cf247e892f7cd19789c8abb0a7a0ddc42a3926995643ab303b4b83fbdae",
    "sac log.csv 420053b1c27620759311b44bbf6bd9d42465566fed42b658bd878f7139538890",
    "sac events.jsonl e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "sac checkpoint.ckpt e3ba04af7fe48e578ea5d3f709ac443a17a52165bedcf7d4d9697afd048fba91",
    "polyprune_sac log.csv 7725dae70f9a4484cf1a76749798594b3876cfc01b433032c3e39525f06d9b0f",
    "polyprune_sac events.jsonl ec2f8f6712f2a65b210c69705de2f72f6f85280d2f955319c8c431b61453d319",
    "polyprune_sac checkpoint.ckpt 10d0e89c311fd3bca8bc4d34d64d04ecd7f9dd9ca0f944167cf58c02decbee91",
    "eaude_sac log.csv 019951f4b0e8354d675e7249c2aae1e1685b7e6d4acf4a35af94b7e429dbd470",
    "eaude_sac events.jsonl e1e7df44621a465f343d97830f4d5b1aebf207460b892d8c0cf4679e9f1c3fa4",
    "eaude_sac checkpoint.ckpt 4fb69c453db2c5a3c1e31c30554f20a86f6e513f0efe5a7f7763fe71ae97394d",
]


@pytest.mark.parametrize("threads", [1, 2])
def test_outputs_match_the_recorded_digests(tmp_path, threads):
    assert digest_lines(tmp_path, threads) == EXPECTED
    for name in CONFIGS:  # each log reads back as a RunLog that writes the same bytes
        _, log = rundir.read(tmp_path / name)
        assert log.to_csv().encode("utf-8") == (tmp_path / name / rundir.LOG).read_bytes()
