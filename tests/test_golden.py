"""Golden output of the CLI pipeline on the bundled corpus.

For each bundled domain, the commands a user runs (`build-kg --plans`,
`ingest-ipc`, `query` C1–C10 as JSON on the graph those two write,
`mine-macros` as JSON and with `--store`, `augment`, `bench` as CSV, and
`solve` under every algorithm on every problem) must print and
write the same bytes as when the digests below were recorded, under two
string hash seeds.  A digest covers a command's exit code, stdout, stderr
and the file it writes; `bench` drops its time column, the one value that
differs between runs.

Run `PYTHONPATH=src python tests/test_golden.py` to print the digests of
the current code, one `label digest` line each.
"""

import hashlib
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from plankb import bundles
from plankb.bench import ALGORITHMS
from plankb.cli import main
from plankb.mapper import COMPETENCY_QUERIES
from plankb.select import read_ipc_csv

SRC = Path(__file__).resolve().parents[1] / "src"
DOMAINS = ("blocksworld", "driverlog", "gripper")

GOLDEN = {
    "blocksworld build-kg":
        "5976b465c8c6b71a09459b29f681bc74ebf6368572d173b65129481e59703558",
    "blocksworld ingest-ipc":
        "9ab8bdcb211c6f01f0f8389cfae2d1e7bdf7eeb53187569307377cab70407a6d",
    "blocksworld query C1":
        "676afc05001a8eba2df5915da457890e76fe2b7ae5e713aa6ba45049e3972559",
    "blocksworld query C2":
        "4610ce801b3070372510cc9e88b476aa3860072ba8bcc1612da7883a3d2a5613",
    "blocksworld query C3":
        "94f853d5f607fa5150e9afdca076dc507a4a0e17d58afed047bcb26e55955ee3",
    "blocksworld query C4":
        "a807b4f9fea80604207c0d87f28baf82152f6c3d507946bbb6076e2249987612",
    "blocksworld query C5":
        "a011ea4c7774619d0ff1921f0ebe986dea240823efb14065766b08d46a287b5a",
    "blocksworld query C6":
        "2caff16f8a9bc1d3e2c58dfdef401e7fc33a73edb7a3991ea7eee71683de7dcd",
    "blocksworld query C7":
        "a3c5f9dc31204c02fe21a1a2f11c5021b1d98aa18a47e197bb57a794d9b296ad",
    "blocksworld query C8":
        "4265f142bf0a3127f75d298a166788dc7c9bb6ddff66fc9679541e165f6a6146",
    "blocksworld query C9":
        "21c8dd85e7bd577949a028f8f7c31a2471634b64b1a304c95c2214a566c2d993",
    "blocksworld query C10":
        "75ff68c0c482943d2debbfedfd9b2811b3ef1d3fe88f9ac93c47027d90945b3d",
    "blocksworld mine-macros json":
        "fafba2833d103ea16ba4de1216a078be1f006868b08ac4d23143589f5bd223e3",
    "blocksworld mine-macros store":
        "e388ad923cf46690a51194b9d7e628bce69cb1f81f21079348c6451da1359fc1",
    "blocksworld augment":
        "ea6adccff67824a6f24a11281cbab6bd0dbd48d112b2304cbdeef62a78dbcb92",
    "blocksworld bench":
        "2ab450b0fef1be94e76100dfe17de9d9fb5919756c247eb616fcbdf33859c4ac",
    "bw-p01 solve breadth-first":
        "f0c7626ceaafd10be57edfe6584a2404e3feeff08782862b9a7a130054b9f68a",
    "bw-p01 solve greedy-best-first":
        "2935f507e6be6b3e25286fbc613540995528b7ebd2a4c48584f49a060d7d4aae",
    "bw-p01 solve a-star":
        "4b94b95941e86bf89bf68c48795929681ae4db80cfe08bd042870567da53718c",
    "bw-p02 solve breadth-first":
        "82140df2c0034307aa87e7c1be49525ac60ea6cf808e9dd845b1d9eb36f47aa5",
    "bw-p02 solve greedy-best-first":
        "2f956d45bf08d85167a0fd0743876dda2408c3ed76ee7c0e53ee2fed42e5eb1c",
    "bw-p02 solve a-star":
        "2f956d45bf08d85167a0fd0743876dda2408c3ed76ee7c0e53ee2fed42e5eb1c",
    "bw-p03 solve breadth-first":
        "52edc1e9be14dac03f941574db266287e97337d5e3601f6e1110668b3d11c563",
    "bw-p03 solve greedy-best-first":
        "58c725f4b6e313ba0f241f757d3bc09de31ed3b489e7591752973cf23c529768",
    "bw-p03 solve a-star":
        "8d88380a46b125cc0f427f9c6f2d11e2372eaaafabb279388d94e172d5cc54bf",
    "bw-p04 solve breadth-first":
        "027932c608ff9a8e0b72b51fc5a36061e370272c65f5261daa8db70cefe57e5e",
    "bw-p04 solve greedy-best-first":
        "8c4c57c15f72dee7ed86c1109a86155df49fcdbbf4812a54147232cfcac374d1",
    "bw-p04 solve a-star":
        "475c10ccc0df3cbddd7a1f83067c302bce88a2fe424fa21abb664c25b4dbe745",
    "bw-p05 solve breadth-first":
        "d0779c30f5fc2fbcc24792761be15070b02c7fcf087a9d326d856da0fe3293cf",
    "bw-p05 solve greedy-best-first":
        "4d657beabf929f4844541f61432be20587c09971634d1cfb4285937c8059f592",
    "bw-p05 solve a-star":
        "6e5cda608fecfbc93ad3fb1b54b1c0922efd31dde40456986f73f8c4b0c10f9b",
    "bw-p06 solve breadth-first":
        "4a4f21e40778986992138fa4212a7053e1d656f1d5e5568c4c75d7620f291b68",
    "bw-p06 solve greedy-best-first":
        "9980313bc04bacb15a4195cc2f63654ad6ee5355a166504535457b93b6f3636a",
    "bw-p06 solve a-star":
        "26b1f72bd067de2576cb8560ca1ac476ad5e3bec1bdea2e7c121ecab17f0c2b5",
    "bw-p07 solve breadth-first":
        "bd6bc96a85deea697c1e3a72d081b63059b45b4fd2a7b8853108ed890da4fa02",
    "bw-p07 solve greedy-best-first":
        "c0d33a35503638d9062ab536377f363ebd3905e03f43380b6839ce9f0715cead",
    "bw-p07 solve a-star":
        "9500ba4c743688317be93bd847d1deddcebde7018cd6c868d940db06b297d1e6",
    "bw-p08 solve breadth-first":
        "e1520e6890ccd72c2be12460a5f7bd5cd2ac69fadc00fe6b9421bae7236080d4",
    "bw-p08 solve greedy-best-first":
        "16a53130757e177752c0d6ccc7940a0f867a1cbdb8b6aa67dfbc3b5cc5ccd897",
    "bw-p08 solve a-star":
        "816f5c6e5884c7bf725efb5fbd44689216bc52164d62cdd654c83a896db29795",
    "bw-p09 solve breadth-first":
        "c1772a1094c13bf98fb4b2b432eb9910fce42396d481296a1eb625607d652d06",
    "bw-p09 solve greedy-best-first":
        "68ac05dac628342fd71720e7d9f36d666d422b5d8e1245aa2485c1a641098aa6",
    "bw-p09 solve a-star":
        "ed80e6e74b5382c5f249c19a34490a10ec1ccdae566ee815234e5645f5c5ac85",
    "bw-p10 solve breadth-first":
        "aa475b6e5b8104925e1a85b0b5584d0c6efe5caafe2f627e744524bb073f0edc",
    "bw-p10 solve greedy-best-first":
        "9aebb4f96aeef31265a4e857e0579ac19f16e0af6a00a0b0722e96665bcab22d",
    "bw-p10 solve a-star":
        "758d00ad283d12c91b9b0302b86bc18a1a531a9c535eb990fe626fd29481e83a",
    "driverlog build-kg":
        "9f1beef50bd19ba55c9f62650980043f64786f4b68224e6702a71f5433224508",
    "driverlog ingest-ipc":
        "b279f81bf9032701352fd2aed54782a31422c8599e54e06833e608f89471d0bc",
    "driverlog query C1":
        "676afc05001a8eba2df5915da457890e76fe2b7ae5e713aa6ba45049e3972559",
    "driverlog query C2":
        "4610ce801b3070372510cc9e88b476aa3860072ba8bcc1612da7883a3d2a5613",
    "driverlog query C3":
        "6f3c3311e353edca35ac1824af86f3cc68f8d6d24cf1dead005392b0ed3bc398",
    "driverlog query C4":
        "ab4922a8838443c589d856e7421b8774607254c2b628149a4a8f8af5a192483a",
    "driverlog query C5":
        "21c8dd85e7bd577949a028f8f7c31a2471634b64b1a304c95c2214a566c2d993",
    "driverlog query C6":
        "217ae3a71b04704deb522fb0609d143dd71029711d6c89d32e3bf8aaafd94ea2",
    "driverlog query C7":
        "d577c746ea142402f0bed2e843d9e2ae2344044243b9c2a3d2b81359cb704c55",
    "driverlog query C8":
        "4265f142bf0a3127f75d298a166788dc7c9bb6ddff66fc9679541e165f6a6146",
    "driverlog query C9":
        "21c8dd85e7bd577949a028f8f7c31a2471634b64b1a304c95c2214a566c2d993",
    "driverlog query C10":
        "5f09118ecabf14bbafee06e679995dc1bcd476188d6a973d5614e76600e5ff0c",
    "driverlog mine-macros json":
        "945f9dea92d95f850518b0b15cc3268009067bacb07cc7d891c15f3eb5e19e56",
    "driverlog mine-macros store":
        "bd0ffd769af652944c59b246661a2671c64bbf12fc96e0dcd2eea6e9d4fa8568",
    "driverlog augment":
        "b1758827be86a484fc8af99dc8e0e5f7747d45aa0e513ce98b2f74e67d9d62ca",
    "driverlog bench":
        "ed9bd683f2c6903f851a63d5731d91a9f26a8fd6d8fabbcdf3ead890f393708b",
    "dl-p01 solve breadth-first":
        "3aabcf922f9cf5aca8ecee0cdce5e046f734c9a00be28533f82623dd54463c2f",
    "dl-p01 solve greedy-best-first":
        "a4d3a737297c7409f7edb7ea46a2bc17ebad596632ddd1d50b92950abfad7165",
    "dl-p01 solve a-star":
        "a4d3a737297c7409f7edb7ea46a2bc17ebad596632ddd1d50b92950abfad7165",
    "dl-p02 solve breadth-first":
        "f812210c01d7549a1fdc883c8a907bf41dc684cfe3f6858aa99ffa8acdd9f441",
    "dl-p02 solve greedy-best-first":
        "6bd397f0a589357db156fc11ee8c19d2efb59c2e144d322568244525cc9ffbd2",
    "dl-p02 solve a-star":
        "8df7608f7108b82f584a887e1ba89098cf731599490d58e4caf8e1a4f228b90b",
    "dl-p03 solve breadth-first":
        "0d529e7d9b19afd521f9b54d3bd3caf4546c12e2d4cf5f7d4a5a026b77733898",
    "dl-p03 solve greedy-best-first":
        "49045f5dbc9bed4ec3ec83d06e9f14ab848f8253ab7db16648f675d6bc43fd15",
    "dl-p03 solve a-star":
        "49dc4a56eb5f70d24eeae2bc87fd83181bc236f2f46e5da590195724084e591a",
    "gripper build-kg":
        "f7bd30c027bb10cfeb684d4a671a4b1e2ffec0fb9ac4751ec82511b63ca9372a",
    "gripper ingest-ipc":
        "115959865b199f68f92b9aae5755cdd423d2c91bcc1caf9f620235d6c3c0917a",
    "gripper query C1":
        "676afc05001a8eba2df5915da457890e76fe2b7ae5e713aa6ba45049e3972559",
    "gripper query C2":
        "4610ce801b3070372510cc9e88b476aa3860072ba8bcc1612da7883a3d2a5613",
    "gripper query C3":
        "1a9c106d2b5a0ae3c9e7bc0151a453f327123dd9486d119b14d3e3cd5d2b0ddd",
    "gripper query C4":
        "8444b1260644df8fdb094124e64fb1ea082e03f56a55a7963971416a45782ab1",
    "gripper query C5":
        "21c8dd85e7bd577949a028f8f7c31a2471634b64b1a304c95c2214a566c2d993",
    "gripper query C6":
        "9f4088ae559a8fa86bb0e731296d12133c2fc136fd31ac0bcb990c746b0a08bd",
    "gripper query C7":
        "148b2ae6c015a2ab27e5e1661317dfb83bb03232b28a944bcfafc08ea570c1d8",
    "gripper query C8":
        "4265f142bf0a3127f75d298a166788dc7c9bb6ddff66fc9679541e165f6a6146",
    "gripper query C9":
        "21c8dd85e7bd577949a028f8f7c31a2471634b64b1a304c95c2214a566c2d993",
    "gripper query C10":
        "e152eedd7caf9036f0aa3774db5cd1cbac072b047ed7994e3a2219302ab3b92a",
    "gripper mine-macros json":
        "1ca3d2ad37ae033e238214b6a7de19fce8dc09593bb956663caa3eb8b16316ad",
    "gripper mine-macros store":
        "62f747f4d1502767412a7e963ee77adeb64640e99d6075a8bfc50f50fab400d3",
    "gripper augment":
        "99c24405f5c3d9321264320b4880f1909c0df3f27199edac2eabfe65b3c984a1",
    "gripper bench":
        "1adc83922a54cd8663f62bb1370ae2fcde9a9a9616b15d6096953ffa34fcb9ca",
    "gr-p01 solve breadth-first":
        "638a044e5f7c650999ee9c8143a4a13a0603e79485b62ea5e6f242da61b86d55",
    "gr-p01 solve greedy-best-first":
        "875f06fc364524a3d45e499f34d518cb70baaaf3cbc536114c8d25d962cf917c",
    "gr-p01 solve a-star":
        "90d04e885664372038ea964597700b33ddcded342988cd7cb4d456e378ca1783",
    "gr-p02 solve breadth-first":
        "551fd1182c8e066541e0280d67eafe579d36f571a6d391fc018d1d131a45e823",
    "gr-p02 solve greedy-best-first":
        "4563a9fc5e467e6d5bf5b0b6d62863e032b6bf46deb6aeb214c361b1d9c05632",
    "gr-p02 solve a-star":
        "49a47108a8db50757b6b13adcc7b4f7ddff0e00cca2bb6af51dba36fda430e93",
    "gr-p03 solve breadth-first":
        "aa74317014cb0ae29b93de2b886459a64371430708b6a4cff720c0e056359513",
    "gr-p03 solve greedy-best-first":
        "cfb0108a4f8d565b642372d57f563645fd7eb6db75a21646754c02888f4ab8e6",
    "gr-p03 solve a-star":
        "d65c90765157bdb6ee087322cf1dbe929345b6afd69ee2e0635875189a6c9a1f",
    "gr-p04 solve breadth-first":
        "5d132e2144f243bf2eeef519bbc055c6a34115a3d9726325be64f6489d34accf",
    "gr-p04 solve greedy-best-first":
        "d6b15fd99090b4a5c0673c708871ca064e5c233082258800e87bff4220a6de71",
    "gr-p04 solve a-star":
        "b432b0a4008dd8b6ec0666b34ccd93367e848b412a97c031327706d174fcc29f",
}


def run_corpus(work: Path) -> dict:
    """label -> SHA-256 of the pipeline's outputs, run in-process in `work`."""
    os.environ["PLANKB_WORKSPACE"] = str(work)
    data = bundles.data_dir()
    digests = {}

    def run(label, argv, written=None, drop_time=False):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        text = out.getvalue()
        if drop_time:
            text = "".join(line.rpartition(",")[0] + "\n" for line in text.splitlines())
        digest = hashlib.sha256("{}\n{}\n{}".format(code, text, err.getvalue()).encode())
        if written is not None:
            digest.update((work / written).read_bytes())
        digests[label] = digest.hexdigest()
        return text

    for name in DOMAINS:
        domain = str(data / "domains" / (name + ".pddl"))
        problems = [str(p) for p in bundles.problem_paths(name)]
        graph, macros, augmented = name + ".ttl", name + ".json", name + "-macros.pddl"
        run(name + " build-kg", ["build-kg", domain, *problems,
                                 "--plans", str(data / "plans" / name), "-o", graph], graph)
        run(name + " ingest-ipc", ["ingest-ipc", str(data / "ipc2011.csv"), "-o", graph], graph)
        # The query arguments name what the graph holds: the bundle's first
        # problem, one of its initial facts and the domain's first action,
        # and the planner and domain of the first IPC row.
        problem = bundles.load_problems(name)[0]
        ipc = read_ipc_csv((data / "ipc2011.csv").read_text())[0]
        args = {"planner": ipc.planner, "domain": name, "problem": problem.name,
                "fact": min(str(atom) for atom in problem.init),
                "action": bundles.load_domain(name).actions[0].name}
        for qid, spec in COMPETENCY_QUERIES.items():
            # C2 reads a relevance tier, which only the IPC domains have.
            given = dict(args, domain=ipc.domain) if qid == "C2" else args
            run("{} query {}".format(name, qid), ["query", graph, "--id", qid, "--format", "json"]
                + [a for key in spec.parameters for a in ("--arg", "{}={}".format(key, given[key]))])
        mine = ["mine-macros", graph, "--domain", name, "--domain-file", domain]
        report = run(name + " mine-macros json", mine + ["--format", "json"])
        (work / macros).write_text(report)
        run(name + " mine-macros store", mine + ["--store"], graph)
        run(name + " augment", ["augment", "--domain", domain, "--macros", macros,
                                "-o", augmented], augmented)
        run(name + " bench", ["bench", "--domain", domain, "--problems", str(data / "problems"),
                              "--macros", macros, "--format", "csv"], drop_time=True)
        for problem in problems:
            for algo in ALGORITHMS:
                run("{} solve {}".format(Path(problem).stem, algo),
                    ["solve", domain, problem, "--algo", algo])
    return digests


def test_pipeline_output_matches_the_recorded_digests():
    # A fresh interpreter per seed, as the string hash seed is fixed at start.
    procs = []
    for seed in (0, 1):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed))
        procs.append(subprocess.Popen(
            [sys.executable, __file__], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    for proc in procs:
        out, err = proc.communicate()
        assert proc.returncode == 0, err
        assert dict(line.rsplit(" ", 1) for line in out.splitlines()) == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for label, digest in run_corpus(Path(tmp)).items():
            print(label, digest)
