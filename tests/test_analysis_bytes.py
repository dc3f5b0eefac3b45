"""Pinned bytes of the whole analysis chain.

The criterion-7 config runs through `synth`, `pipeline ingest ... report`,
`export --gexf` for each network and `label report`. Every run-directory
file, each GEXF, each label report and the manifest (run id, timestamps and
source paths removed) must hash to the committed table, in this process
and in a fresh interpreter under another PYTHONHASHSEED. A `.gz` store file
must be one gzip member with mtime 0, and the table pins its decompressed
bytes: those do not depend on the zlib build, while the compressed bytes,
and so the manifest's output digests, may. A change that
alters some artifact's bytes on purpose updates the table and says which
files changed and why.

Run alone: python tests/test_analysis_bytes.py DIR  (prints the digests)
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

from hashjack.cli import entrypoint

CONFIG = {  # test_acceptance.test_criterion_7_end_to_end_determinism
    "seed": 11,
    "parties": [
        {"name": "party1", "partisans": 120, "contras": 40},
        {"name": "party2", "partisans": 100, "contras": 30},
    ],
    "public_hashtags": [{"name": "agenda", "pro": 200, "contra": 30}],
    "activity": {"zipf_s": 1.05, "events_per_member": 8, "attention_s": 2.0},
    "mixing": {"p_in": 0.95, "p_out": 0.001},
    "participation": 0.8,
    "hijack": {"party1": {"agenda": 0.25}},
}
TAGS = ("party1", "party2", "agenda")

PINNED_SHA256 = {
    "activity.json": "fbd6d17d06c5a96ff38f6d8bb4bb5810090c3451fd32f7e55a2cdb9493041345",
    "agenda.gexf": "83c487d5d1acd024f267ce026da966d0f601afa7c7e4f2b10857d95b6c1fb68f",
    "fig1.csv": "6d8d36896304f76433c9f26684561130bc4a803f7bb4bf5a5374b59c7ad9be59",
    "fig3a.csv": "9d464592e6a471e35972ebbf595dd64247ec344c77facbfcfcba0bca60b2a4bd",
    "fig3b.csv": "c4cd9e05d3a8b23132a15a7829e250baba771f1861e50ec87aa2e5a6e1cbdc6e",
    "label report agenda": "82635884c356406c91a32a4e78c2d8d55d786f1af75ffc48058c3c1d1da391fc",
    "label report party1": "eacb5123db5aed4deb1ded628cd61662e79a5c757da7cc535a19493a0ea398a7",
    "label report party2": "68707a764073ebc4ff74fcc569dd947b99e7b123e565ac37f985d9545066979d",
    "labels/agenda.json": "b8a9e6bd85b5559f22765855f0b2e9d6cb5d42358b3eb720217f23a45ca04923",
    "labels/party1.json": "a8c2bbeb5cdef7a273c5394d9197d0f3540a49e805c8fc6bd9a13d60b28a91b3",
    "labels/party2.json": "f36b80eddfb7591133f037244407f1a64060791b049619851b97b190592005c6",
    "manifest.json": "b4d15db7c474863a8d2381f9d31e5cb42b81de4b42bb84e3646f296d95bc95b6",
    "networks/agenda.json": "bf95bdb09554815d357426b9dfcb1ae515b90b8160332734e92c68c29e41081d",
    "networks/party1.json": "c32a043a78bba90d5f69358acee80a5281eca04881fd0e38f435ed6fccf92ebb",
    "networks/party2.json": "1bbbc0e53623cb23828b65b66cfc9b92fff1ab2d6a198d7d121ed7c08d96cc58",
    "networks/registry.json": "7789cab79000104f1d8117ddbf50a99c03edac15182623fd62e3f61ce0896391",
    "odds.json": "2b54bf35912d0910212803399b206aabc66c88c46f114d56274a12286a407094",
    "partitions/agenda.json": "1a1f75777289be5aeb40fa2b72c706a8c460579b9d37d49d894e7a0341f822a9",
    "partitions/party1.json": "33c0f7aec4098636484705611e3cd0bffd87de41b3aef3d4c75b09b4da030982",
    "partitions/party2.json": "56aa748786a7e29f87e1c79abb46e45cc96a246fcfbc58d698a52b5ffa282072",
    "party1.gexf": "3787451cfef6ac3a5172280af6e7f73b01937d8ea44d2dcf0174401e9baf7c08",
    "party2.gexf": "a9f627c9d6e1a0b4088fd88ae0aa23f6a2d5040b5ef8ccde7e2f4b2b04bfe39f",
    "polarisation.json": "5620d4f026ba28bf19b3725df78119c0b6a39f4576a2cb9adce287e0210b7f76",
    "report.json": "bee945ee70c71f2ff28e553602f3b273e3825c92b7d4e63d7e015384dc66e9cc",
    "store/agenda.npy.gz": "f90c45742496d393b0bd696343e00e3a8bdfffe31ec795dabc722ab873867f7c",
    "store/party1.npy.gz": "1ac2cb071b7204925dbf2fdf7d0bfe67d64423663a0656354944ef001aa320a8",
    "store/party2.npy.gz": "51401b690b3024de2c6a3204a7f90a83b4cc9079a226d068905899702c59c3da",
    "store/registry.json.gz": "7789cab79000104f1d8117ddbf50a99c03edac15182623fd62e3f61ce0896391",
    "store/stats.json": "32e56f44cdc1c4dbbac2aaf4ac27e53f8b61f2c726901eeb1e5a095d422458da",
}


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = entrypoint(argv)
    assert code == 0, (argv, code)
    return out.getvalue()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gunzip_member(data: bytes) -> bytes:
    """The content of `data`, which must be one gzip member with mtime 0."""
    assert data[:3] == b"\x1f\x8b\x08" and data[4:8] == bytes(4)
    member = zlib.decompressobj(wbits=31)
    content = member.decompress(data)
    assert member.eof and not member.unused_data
    return content


def analysis_digests(tmp: Path) -> dict[str, str]:
    """SHA-256 of every artifact of the criterion-7 chain run under `tmp`."""
    (tmp / "cfg.json").write_text(json.dumps(CONFIG))
    corpus, truth_path, run = tmp / "corpus.jsonl", tmp / "truth.json", tmp / "run"
    _run(["synth", "--config", str(tmp / "cfg.json"), "--out", str(corpus),
          "--truth", str(truth_path)])
    truth = json.loads(truth_path.read_text(encoding="utf-8"))
    labels = [{"network": tag, "seeds": {side: truth["sides"][tag][side][:5]
                                         for side in ("pro", "contra")}}
              for tag in TAGS]
    (tmp / "labels.json").write_text(json.dumps(labels))
    _run(["pipeline", "ingest", "build", "communities", "label", "polarisation",
          "odds", "activity", "report", "--input", str(corpus),
          "--tracked", ",".join(TAGS), "--resolution", "0.5",
          "--labels", str(tmp / "labels.json"), "--targets", "agenda",
          "--run-dir", str(run)])
    digests = {}
    for tag in TAGS:
        _run(["export", "--network", tag, "--gexf", str(tmp / f"{tag}.gexf"),
              "--run-dir", str(run)])
        digests[f"{tag}.gexf"] = _sha((tmp / f"{tag}.gexf").read_bytes())
        text = _run(["label", "report", "--network", tag, "--run-dir", str(run)])
        digests[f"label report {tag}"] = _sha(text.encode("utf-8"))
    for path in sorted(run.rglob("*")):
        rel = path.relative_to(run).as_posix()
        if path.is_file() and rel not in (".lock", "manifest.json"):
            data = path.read_bytes()
            digests[rel] = _sha(gunzip_member(data) if rel.endswith(".gz") else data)
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    del manifest["run_id"], manifest["created"]
    for entry in manifest["stages"].values():
        del entry["completed"]
        entry.pop("source", None)
    digests["manifest.json"] = _sha(json.dumps(manifest, sort_keys=True).encode("utf-8"))
    return digests


def test_analysis_bytes_pinned(tmp_path):
    assert analysis_digests(tmp_path) == PINNED_SHA256


def test_analysis_bytes_pinned_in_a_fresh_interpreter(tmp_path):
    hash_seed = "7" if os.environ.get("PYTHONHASHSEED") != "7" else "8"
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == PINNED_SHA256


if __name__ == "__main__":
    print(json.dumps(analysis_digests(Path(sys.argv[1]))))
