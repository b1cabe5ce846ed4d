"""Command-line front end: dispatch, exit codes, one-shot and shell modes."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import FaultInjector, child_env, perm_to_hashtags
from stegdisc.carrier import BlockPayload, CarrierObject, embed, encode_payload, read_payload
from stegdisc.disc import Disc, DiscConfig
from stegdisc.errors import UsageError
from stegdisc.osn import DirectoryBackend, MemoryBackend
from stegdisc.shell import ShellSession, default_disc_path, main


def session(tmp_path, backend_spec="memory", **kwargs):
    return ShellSession(disc_path=tmp_path / "sb.txt", backend_spec=backend_spec, **kwargs)


def run_cli(args, cwd, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "stegdisc", *args],
        input=stdin, capture_output=True, text=True, cwd=cwd, timeout=120,
        env=child_env(),
    )


class TestDispatch:
    def test_format_ls_roundtrip(self, tmp_path, capsys):
        sess = session(tmp_path)
        assert sess.execute(["format", "C", "4", "16", "8", "--id", "t1"]) == 0
        assert sess.execute(["ls"]) == 0
        (tmp_path / "f.bin").write_bytes(b"hello shell")
        assert sess.execute(["put", str(tmp_path / "f.bin"), "doc"]) == 0
        assert sess.execute(["get", "doc", str(tmp_path / "out.bin")]) == 0
        assert (tmp_path / "out.bin").read_bytes() == b"hello shell"
        out = capsys.readouterr().out
        assert "stored doc" in out

    def test_rm_missing_is_user_error(self, tmp_path, capsys):
        sess = session(tmp_path)
        sess.execute(["format", "C", "4", "16", "8"])
        assert sess.execute(["rm", "missing"]) == 1
        assert "not found" in capsys.readouterr().out

    def test_unknown_command(self, tmp_path, capsys):
        sess = session(tmp_path)
        assert sess.execute(["frobnicate"]) == 1
        assert "unknown command" in capsys.readouterr().out

    def test_usage_error(self, tmp_path):
        sess = session(tmp_path)
        assert sess.execute(["put", "only-one-arg"]) == 1

    def test_edit_and_stat(self, tmp_path, capsys):
        sess = session(tmp_path)
        sess.execute(["format", "B", "4", "16", "8"])
        (tmp_path / "a").write_bytes(b"v1")
        (tmp_path / "b").write_bytes(b"v2 is longer")
        sess.execute(["put", str(tmp_path / "a"), "doc"])
        assert sess.execute(["edit", "doc", str(tmp_path / "b")]) == 0
        sess.execute(["get", "doc", str(tmp_path / "out")])
        assert (tmp_path / "out").read_bytes() == b"v2 is longer"
        assert sess.execute(["stat"]) == 0
        out = capsys.readouterr().out
        assert "file_count: 1" in out
        assert "checkpoints: 0" in out  # mode B keeps no ladder

    def test_fsck_clean_exit_zero(self, tmp_path):
        sess = session(tmp_path)
        sess.execute(["format", "A", "4", "16", "8"])
        assert sess.execute(["fsck"]) == 0

    def test_backend_failure_exit_three(self, tmp_path):
        sess = session(tmp_path)
        sess.execute(["format", "C", "4", "16", "8"])
        sess.backend = FaultInjector(sess.backend)
        sess.backend.arm(1)
        sess.disc = None  # force reopen against the failing backend
        assert sess.execute(["ls"]) == 0  # catalog is local, no backend query
        assert sess.execute(["fsck"]) == 3
        assert sess.backend.counts == {"fetch": 1}  # fsck's first, of the genesis block

    def test_unknown_backend_spec_exit_one(self, tmp_path, capsys):
        sess = session(tmp_path, backend_spec="s3:bucket")
        assert sess.execute(["format", "A", "4", "16", "8"]) == 1
        assert "s3:bucket" in capsys.readouterr().out
        assert not (tmp_path / "sb.txt").exists()

    def test_json_output(self, tmp_path, capsys):
        sess = session(tmp_path, json_out=True)
        sess.execute(["format", "C", "4", "16", "8", "--id", "jj"])
        (tmp_path / "f").write_bytes(bytes(20))
        sess.execute(["put", str(tmp_path / "f"), "doc"])
        capsys.readouterr()
        assert sess.execute(["ls"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == 0
        assert payload["files"][0]["name"] == "doc"
        assert payload["files"][0]["length"] == 20
        assert sess.execute(["get", "doc", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert sess.execute(["stat"]) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["checkpoints"] >= 1

    def test_format_refuses_a_line_break_in_the_disc_id(self, tmp_path, capsys):
        doc, store = tmp_path / "sb.txt", tmp_path / "store"
        base = ["--disc", str(doc), "--backend", f"dir:{store}", "format", "A", "5", "16", "8", "--id"]
        for brk in "\x85\u2028\u2029":
            assert main([*base, f"ab{brk}cd"]) == 1
            assert "reserved characters" in capsys.readouterr().out
            assert not doc.exists() and DirectoryBackend(store).live_addresses() == []
        assert main([*base, "disc-é"]) == 0
        assert Disc.open(doc, DirectoryBackend(store)).config.disc_id == "disc-é"
        assert main(["--disc", str(doc), "--backend", f"dir:{store}", "fsck"]) == 0

    @pytest.mark.parametrize("command", [["format", "A", "0", "16", "8"], ["bench", "--n", "0"]])
    def test_a_zero_alphabet_size_is_named(self, tmp_path, capsys, command):
        # n is checked before the demo alphabet of n hashtags is built
        assert main(["--disc", str(tmp_path / "sb.txt"), *command]) == 1
        assert capsys.readouterr().out.startswith("error: n, p, m must be >= 1 (n=0 ")

    def test_format_refuses_a_mode_c_disc_that_holds_no_block(self, tmp_path, capsys):
        doc, store = tmp_path / "sb.txt", tmp_path / "store"
        assert main(["--disc", str(doc), "--backend", f"dir:{store}", "format", "C", "4", "1", "8"]) == 1
        assert capsys.readouterr().out == "error: the stream's first completion 11 passes 2^p - 1 (p=1)\n"
        assert not doc.exists() and DirectoryBackend(store).live_addresses() == []

    @pytest.mark.parametrize("args, message", [
        (["A", "1", "8", "8"], "n=1 with genesis 0 leaves no address for a data block"),
        (["B", "1", "8", "8"], "n=1 with genesis 0 leaves no address for a data block"),
        (["C", "1", "8", "8"], "n=1 with genesis 0 leaves no address for a data block"),
        # the other permutation is the identity, which rank codes keep for NULL
        (["A", "2", "8", "8", "--genesis", "1,0"], "n=2 with genesis 1,0 leaves no address for a data block"),
        (["B", "2", "8", "8", "--genesis", "1,0"], "n=2 with genesis 1,0 leaves no address for a data block"),
        (["A", "4", "16", "8", "--genesis", "1,0"], "genesis has 2 elements, expected n=4"),
        (["A", "2", "8", "8", "--alphabet", "#a,b"], "bad hashtag 'b': must be #<tag>"),
        (["A", "2", "8", "8", "--alphabet", "#a,#b c"], "bad hashtag '#b c': whitespace/comma not allowed"),
        (["A", "2", "8", "8", "--alphabet", "#a,#a"], "alphabet tags must be pairwise distinct"),
        # an empty element is refused, not dropped, as the document reader refuses ",,"
        (["A", "5", "16", "8", "--genesis", "1,,0,2,3,4"],
         "format: argument --genesis: expected comma-joined integers, got '1,,0,2,3,4'"),
        (["A", "2", "8", "8", "--alphabet", "#a,#b=c"],
         "bad hashtag '#b=c': ';', '=' and control characters not allowed"),
    ])
    def test_format_refuses_a_bad_config(self, tmp_path, capsys, args, message):
        doc, store = tmp_path / "sb.txt", tmp_path / "store"
        assert main(["--disc", str(doc), "--backend", f"dir:{store}", "format", *args]) == 1
        assert capsys.readouterr().out == f"error: {message}\n"
        assert not doc.exists() and DirectoryBackend(store).live_addresses() == []

    @pytest.mark.parametrize("json_out", [False, True])
    def test_format_refuses_to_overwrite_a_disc_document(self, tmp_path, capsys, json_out):
        doc, store = tmp_path / "sb.txt", tmp_path / "store"
        base = ["--disc", str(doc), "--backend", f"dir:{store}", *["--json"] * json_out]
        (tmp_path / "f.bin").write_bytes(b"first disc")
        assert main([*base, "format", "A", "5", "16", "8", "--genesis", "1,0,2,3,4"]) == 0
        assert main([*base, "put", str(tmp_path / "f.bin"), "f"]) == 0
        document, posts = doc.read_bytes(), DirectoryBackend(store).live_addresses()
        capsys.readouterr()
        assert main([*base, "format", "A", "5", "16", "8", "--genesis", "2,0,1,3,4"]) == 1
        message = f"a disc document is already at {doc}; format will not overwrite it"
        out = capsys.readouterr().out
        if json_out:
            assert json.loads(out) == {"status": 1, "error": message}
        else:
            assert out == f"error: {message}\n"
        assert doc.read_bytes() == document and DirectoryBackend(store).live_addresses() == posts
        assert main([*base, "get", "f", str(tmp_path / "out.bin")]) == 0
        assert (tmp_path / "out.bin").read_bytes() == b"first disc"

    @pytest.mark.parametrize("args", [["C", "2", "8", "8", "--genesis", "1,0"], ["A", "2", "8", "8"]])
    def test_the_smallest_discs_hold_a_block(self, tmp_path, args):
        base = ["--disc", str(tmp_path / "sb.txt"), "--backend", f"dir:{tmp_path / 'store'}"]
        (tmp_path / "one.bin").write_bytes(b"1")
        assert main([*base, "format", *args]) == 0
        assert main([*base, "put", str(tmp_path / "one.bin"), "one"]) == 0
        assert main([*base, "get", "one", str(tmp_path / "out.bin")]) == 0
        assert (tmp_path / "out.bin").read_bytes() == b"1"

    def test_fsck_reports_a_lost_post_and_a_bad_echo(self, tmp_path, capsys):
        doc, store = tmp_path / "sb.txt", tmp_path / "store"
        base = ["--disc", str(doc), "--backend", f"dir:{store}"]
        (tmp_path / "f.bin").write_bytes(bytes(range(20)))
        assert main([*base, "format", "A", "4", "16", "8", "--id", "pin"]) == 0
        assert main([*base, "put", str(tmp_path / "f.bin"), "doc"]) == 0
        backend = DirectoryBackend(store)
        disc = Disc.open(doc, backend)
        # remove the file's second post, and echo another mode in the genesis block
        _, lost, _ = disc.chain_blocks()[1]
        backend.remove(perm_to_hashtags(lost, disc.config.alphabet))
        tags = perm_to_hashtags(disc.config.genesis, disc.config.alphabet)
        carrier = CarrierObject.from_bytes(backend.fetch(tags))
        echo = read_payload(carrier, 16)
        forged = BlockPayload(echo.next_counter, echo.data.replace(b"mode=A", b"mode=B"), echo.flags)
        backend.replace(tags, embed(carrier, encode_payload(forged, 16)).data)
        capsys.readouterr()
        assert main([*base, "fsck"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "genesis-echo at 0: genesis echo b'n=4;p=16;m=8;mode=B;id=pin' != b'n=4;p=16;m=8;mode=A;id=pin'",
            "bad-block at 7: no object at #tag1 #tag0 #tag3 #tag2",
        ]
        assert main([*base, "--json", "fsck"]) == 2
        assert json.loads(capsys.readouterr().out) == {"status": 2, "block_count": 2, "violations": [
            {"kind": "genesis-echo", "counter": 0,
             "detail": "genesis echo b'n=4;p=16;m=8;mode=B;id=pin' != b'n=4;p=16;m=8;mode=A;id=pin'"},
            {"kind": "bad-block", "counter": 7, "detail": "no object at #tag1 #tag0 #tag3 #tag2"},
        ]}


class TestDifferential:
    def test_shell_equals_library(self, tmp_path):
        """The same script through the shell and through the API must
        produce identical catalogs and contents."""
        blobs = {"one": b"first file", "two": bytes(range(100)), "three": b""}

        lib_backend = MemoryBackend()
        config = DiscConfig.create(n=4, p=16, m=8, mode="C", disc_id="same")
        lib = Disc.format(config, lib_backend, doc_path=tmp_path / "lib.sb")
        for name, blob in blobs.items():
            lib.write_file(name, blob)
        lib.delete_file("two")
        lib.modify_file("one", b"rewritten")

        sess = ShellSession(disc_path=tmp_path / "sh.sb")
        sess.execute(["format", "C", "4", "16", "8", "--id", "same"])
        for name, blob in blobs.items():
            src = tmp_path / f"in-{name}"
            src.write_bytes(blob)
            assert sess.execute(["put", str(src), name]) == 0
        assert sess.execute(["rm", "two"]) == 0
        rewrite = tmp_path / "rewrite"
        rewrite.write_bytes(b"rewritten")
        assert sess.execute(["edit", "one", str(rewrite)]) == 0

        lib_files = [(e.name, e.start_counter, e.length) for e in lib.list_files()]
        sh_files = [(e.name, e.start_counter, e.length) for e in sess.disc.list_files()]
        assert lib_files == sh_files
        for entry in lib.list_files():
            assert lib.read_file(entry.name) == sess.disc.read_file(entry.name)
        assert (tmp_path / "lib.sb").read_text() == sess.disc_path.read_text()


class TestSubprocess:
    def test_one_shot_round_trip(self, tmp_path):
        (tmp_path / "f.bin").write_bytes(b"subprocess payload" * 10)
        base = ["--disc", "sb.txt", "--backend", "dir:store"]
        assert run_cli([*base, "format", "C", "5", "16", "32"], tmp_path).returncode == 0
        assert run_cli([*base, "put", "f.bin", "doc"], tmp_path).returncode == 0
        out = run_cli([*base, "ls"], tmp_path)
        assert out.returncode == 0 and out.stdout.startswith("doc\t180")
        assert run_cli([*base, "get", "doc", "out.bin"], tmp_path).returncode == 0
        assert (tmp_path / "out.bin").read_bytes() == b"subprocess payload" * 10
        assert run_cli([*base, "fsck"], tmp_path).returncode == 0
        bad = run_cli([*base, "rm", "missing"], tmp_path)
        assert bad.returncode == 1
        assert "not found" in bad.stdout
        assert "Traceback" not in bad.stdout + bad.stderr

    def test_runs_without_numpy(self, tmp_path):
        # None in sys.modules makes any `import numpy` raise ImportError,
        # wherever the package is installed
        blocked = ("import sys; sys.modules['numpy'] = None; "
                   "from stegdisc.shell import main; sys.exit(main(sys.argv[1:]))")
        (tmp_path / "f.bin").write_bytes(b"standard library only" * 5)
        base = ["--disc", "sb.txt", "--backend", "dir:store"]
        for args in (["format", "A", "5", "16", "32"], ["put", "f.bin", "doc"],
                     ["get", "doc", "out.bin"], ["ls"], ["fsck"]):
            proc = subprocess.run(
                [sys.executable, "-c", blocked, *base, *args],
                capture_output=True, text=True, cwd=tmp_path, timeout=120, env=child_env(),
            )
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out.bin").read_bytes() == b"standard library only" * 5

    def test_shell_import_leaves_the_bench_module_unloaded(self, tmp_path):
        # only the bench command needs stegdisc.bench; a one-shot call of
        # any other command must not pay for importing it
        probe = "import sys, stegdisc.shell; sys.exit('stegdisc.bench' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, cwd=tmp_path, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr

    def test_one_shot_get_imports_neither_dataclasses_nor_inspect(self, tmp_path):
        # records are NamedTuples or plain classes, so a one-shot get loads
        # neither dataclasses nor the inspect module it pulls in; -S keeps
        # site's .pth files out of the list
        (tmp_path / "f.bin").write_bytes(b"import probe" * 25)
        base = ["--disc", "sb.txt", "--backend", "dir:store"]
        for args in (["format", "A", "5", "16", "32"], ["put", "f.bin", "doc"]):
            setup = run_cli([*base, *args], tmp_path)
            assert setup.returncode == 0, setup.stderr
        proc = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "stegdisc", *base, "get", "doc", "out.bin"],
            capture_output=True, text=True, cwd=tmp_path, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out.bin").read_bytes() == b"import probe" * 25
        loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        assert "stegdisc.shell" in loaded
        assert not loaded & {"dataclasses", "inspect"}

    def test_repl_matches_one_shot(self, tmp_path):
        (tmp_path / "f.bin").write_bytes(b"repl payload")
        lines = "\n".join([
            "format C 5 16 32 --id repl",
            "put f.bin doc",
            "ls",
            "get doc out.bin",
            "exit",
        ]) + "\n"
        proc = run_cli(["--disc", "sb.txt", "--backend", "dir:store"], tmp_path, stdin=lines)
        assert proc.returncode == 0, proc.stderr
        assert "doc\t12" in proc.stdout
        assert (tmp_path / "out.bin").read_bytes() == b"repl payload"

    def test_corrupted_disc_exits_two(self, tmp_path):
        (tmp_path / "f.bin").write_bytes(bytes(64))
        base = ["--disc", "sb.txt", "--backend", "dir:store"]
        for args in (["format", "C", "4", "16", "8"], ["put", "f.bin", "doc"]):
            setup = run_cli([*base, *args], tmp_path)
            assert setup.returncode == 0, setup.stderr
        # knock one block out from under the disc
        disc = Disc.open(tmp_path / "sb.txt", DirectoryBackend(tmp_path / "store"))
        _, addr, _ = disc.chain_blocks()[2]
        digest = DirectoryBackend._digest(perm_to_hashtags(addr, disc.config.alphabet))
        shutil.rmtree(tmp_path / "store" / digest)
        proc = run_cli([*base, "fsck"], tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stdout + proc.stderr

    def test_get_of_a_broken_file_exits_two(self, tmp_path):
        (tmp_path / "f.bin").write_bytes(bytes(range(20)))  # three blocks
        base = ["--disc", "sb.txt", "--backend", "dir:store"]
        for args in (["format", "A", "4", "16", "8"], ["put", "f.bin", "doc"]):
            setup = run_cli([*base, *args], tmp_path)
            assert setup.returncode == 0, setup.stderr
        disc = Disc.open(tmp_path / "sb.txt", DirectoryBackend(tmp_path / "store"))
        tags = perm_to_hashtags(disc.chain_blocks()[1][1], disc.config.alphabet)
        disc.backend.remove(tags)
        proc = run_cli([*base, "get", "doc", "out.bin"], tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == f"error: no object at {' '.join(tags)}\n"
        assert "Traceback" not in proc.stdout + proc.stderr
        assert not (tmp_path / "out.bin").exists()

    def test_get_with_no_document_exits_one(self, tmp_path):
        proc = run_cli(["--disc", "sb.txt", "--backend", "dir:store", "get", "doc", "out.bin"], tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == "error: no disc document at sb.txt; run format or open\n"
        assert "Traceback" not in proc.stderr

    def test_json_flag(self, tmp_path):
        base = ["--disc", "sb.txt", "--backend", "dir:store", "--json"]
        setup = run_cli([*base, "format", "C", "4", "16", "8"], tmp_path)
        assert setup.returncode == 0, setup.stderr
        proc = run_cli([*base, "fsck"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload == {"status": 0, "block_count": 1, "violations": []}


class TestUsageErrors:
    """A bad command line exits 1 with one error line, as text or as the --json object."""

    @pytest.mark.parametrize("command, message", [
        (["frobnicate"], "unknown command 'frobnicate'"),
        (["bench", "--modes", "Q"], "modes must come from ('A', 'B', 'C'): ('Q',)"),
        (["bench", "--counts", "0"], "block counts must be positive integers: (0,)"),
        (["bench", "--counts", "10,,100"], "bench: argument --counts: expected comma-joined integers, got '10,,100'"),
    ])
    def test_one_shot_text_and_json(self, tmp_path, capsys, command, message):
        base = ["--disc", str(tmp_path / "sb.txt")]
        assert main([*base, *command]) == 1
        assert capsys.readouterr() == (f"error: {message}\n", "")
        assert main([*base, "--json", *command]) == 1
        assert json.loads(capsys.readouterr().out) == {"status": 1, "error": message}
        assert not (tmp_path / "sb.txt").exists()


class TestVerbose:
    """--verbose writes one stderr line per command, its status and its argv."""

    def test_one_line_per_one_shot_command(self, tmp_path, capsys):
        base = ["--disc", str(tmp_path / "sb.txt"), "--backend", f"dir:{tmp_path / 'store'}", "--verbose"]
        (tmp_path / "f.bin").write_bytes(b"verbose")
        assert main([*base, "format", "A", "5", "16", "8", "--id", "v"]) == 0
        assert main([*base, "put", str(tmp_path / "f.bin"), "f"]) == 0
        capsys.readouterr()
        assert main([*base, "ls"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("f\t7\t") and out.count("\n") == 1
        assert err == "[0] ls\n"
        assert main([*base, "rm", "missing"]) == 1
        assert capsys.readouterr() == ("error: file 'missing' not found\n", "[1] rm missing\n")


class TestEnvironment:
    def test_home_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("STEGDISC_HOME", str(tmp_path / "homedir"))
        assert default_disc_path() == tmp_path / "homedir" / "superblock.txt"

    def test_main_usage_error(self, capsys):
        assert main(["--no-such-flag"]) == 1
        assert "error" in capsys.readouterr().err

    def test_main_help(self, capsys):
        assert main(["--help"]) == 0
        assert "stegdisc" in capsys.readouterr().out


class TestBenchCommand:
    def test_bench_runs(self, tmp_path, capsys):
        sess = session(tmp_path)
        assert sess.execute(["bench", "--counts", "3,6", "--modes", "B,C", "--p", "16"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines()[1:] if line]
        assert sorted(line.split()[0] for line in rows) == ["B", "B", "C", "C"]

    def test_bench_json_has_cold_and_warm_reads(self, tmp_path, capsys):
        sess = session(tmp_path, json_out=True)
        assert sess.execute(["bench", "--counts", "60", "--modes", "B,C", "--p", "16"]) == 0
        rows = {row["mode"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
        assert set(rows["B"]["per_read_iterations"]) == {0}
        assert set(rows["B"]["warm_per_read_iterations"]) == {0}
        cold, warm = rows["C"]["per_read_iterations"], rows["C"]["warm_per_read_iterations"]
        assert all(a < b for a, b in zip(cold, cold[1:]))  # fresh sessions replay from the seed
        assert set(warm) == {0}  # the writing session walked every counter
        assert sum(warm) < sum(cold)

    def test_bench_bad_config_prints_no_table(self, tmp_path, capsys):
        assert main(["--disc", str(tmp_path / "sb.txt"), "bench", "--n", "0"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error:") and len(out.splitlines()) == 1

    def test_bench_bad_spec(self, tmp_path):
        sess = session(tmp_path)
        assert sess.execute(["bench", "--modes", "Q"]) == 1
