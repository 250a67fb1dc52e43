from pathlib import Path

import pytest

from psda.config import DEFAULTS, build_config, load_config, read_config_file
from psda.errors import ConfigError


def write(tmp_path, text, name="psda.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReadConfigFile:
    def test_parses_keys_and_skips_noise(self, tmp_path):
        path = write(
            tmp_path,
            "# heading comment\n"
            "\n"
            "seed = 42\n"
            "ot.epsilon= 0.25\n"
            "rho =0.5,0.25,0.25\n",
        )
        assert read_config_file(path) == {
            "seed": "42",
            "ot.epsilon": "0.25",
            "rho": "0.5,0.25,0.25",
        }

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config_file(tmp_path / "nope.cfg")

    def test_line_without_equals(self, tmp_path):
        path = write(tmp_path, "seed 42\n")
        with pytest.raises(ConfigError, match=":1:"):
            read_config_file(path)

    def test_empty_value(self, tmp_path):
        path = write(tmp_path, "seed =\n")
        with pytest.raises(ConfigError):
            read_config_file(path)

    def test_unknown_key(self, tmp_path):
        path = write(tmp_path, "sede = 3\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            read_config_file(path)

    def test_duplicate_key(self, tmp_path):
        path = write(tmp_path, "seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            read_config_file(path)


class TestBuildConfig:
    def test_defaults_materialize(self):
        cfg = build_config({})
        assert cfg.seed == 0
        assert cfg.copies == 1
        assert cfg.oov == "zero"
        assert cfg.pos_dim == 17
        assert cfg.k.single is None and cfg.k.family is None and cfg.k.multi is None
        params = cfg.ot
        assert params.epsilon == 0.1
        assert params.tail_count == 300
        assert params.eta == 0.001
        assert params.rho == (0.4, 0.2, 0.4)
        assert params.lam == (0.5, 0.5)
        assert params.power == 1.0
        policy = cfg.k
        assert policy.single is None and policy.family is None and policy.multi is None
        gmm = cfg.gmm
        assert gmm.covariance == "diagonal" and gmm.max_iter == 200

    def test_explicit_values(self):
        cfg = build_config({"k.single": "4", "ot.epsilon": "0.5", "copies": "3"})
        assert cfg.k.single == 4
        assert cfg.ot.epsilon == 0.5
        assert cfg.copies == 3

    def test_relative_paths_resolve_against_base_dir(self, tmp_path):
        (tmp_path / "fam.txt").write_text("f: aa\n", encoding="utf-8")
        (tmp_path / "vec.txt").write_text("0 3\n", encoding="utf-8")
        cfg = build_config(
            {"taxonomy": "fam.txt", "embeddings.aa": "vec.txt"}, base_dir=tmp_path
        )
        assert cfg.taxonomy_path == tmp_path / "fam.txt"
        assert cfg.embedding_paths["aa"] == tmp_path / "vec.txt"

    def test_absolute_path_kept(self, tmp_path):
        target = tmp_path / "fam.txt"
        target.write_text("f: aa\n", encoding="utf-8")
        cfg = build_config({"taxonomy": str(target)}, base_dir=tmp_path / "elsewhere")
        assert cfg.taxonomy_path == target

    def test_missing_path_rejected_up_front(self, tmp_path):
        with pytest.raises(ConfigError, match="path does not exist"):
            build_config({"taxonomy": str(tmp_path / "ghost.txt")})

    @pytest.mark.parametrize(
        "raw",
        [
            {"copies": "0"},
            {"copies": "two"},
            {"oov": "skip"},
            {"gmm.covariance": "full"},
            {"k.single": "0"},
            {"k.single": "-2"},
            {"rho": "0.5,0.5"},
            {"lam": "0.5,0.5,0.0"},
            {"seed": "1.5"},
            {"ot.tail": "0"},
            {"gmm.max_iter": "0"},
            {"gmm.tol": "-1"},
            {"gmm.tol": "nan"},
            {"gmm.cov_floor": "nan"},
            {"ot.tol": "-1"},
            {"ot.tol": "nan"},
            {"ot.eta": "inf"},
            {"ot.epsilon": "inf"},
            {"ot.power": "inf"},
            {"ot.power": "0"},
            {"ot.max_iter": "-1"},
            {"pos.dim": "-1"},
            {"pos.seed": "-1"},
        ],
    )
    def test_invalid_values(self, raw):
        with pytest.raises(ConfigError):
            build_config(raw)

    def test_negative_pos_seed_names_its_key(self):
        with pytest.raises(ConfigError, match="pos.seed"):
            build_config({"pos.seed": "-1"})

    def test_bad_weights_name_transport_settings(self):
        with pytest.raises(ConfigError, match="invalid transport settings"):
            build_config({"rho": "0.5,0.4,0.3"})
        with pytest.raises(ConfigError, match="invalid transport settings"):
            build_config({"ot.epsilon": "0"})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config({"totally.bogus": "1"})


class TestEcho:
    def test_sorted_and_canonical(self):
        echo = build_config({"seed": "3", "ot.epsilon": "0.25"}).echo()
        assert list(echo) == sorted(echo)
        assert echo["seed"] == "3"
        assert echo["ot.epsilon"] == "0.25"
        assert echo["ot.tol"] == "1e-09"
        assert echo["rho"] == "0.4,0.2,0.4"
        assert echo["k.single"] == "auto"
        assert "taxonomy" not in echo

    def test_includes_paths_when_set(self, tmp_path):
        (tmp_path / "fam.txt").write_text("f: aa\n", encoding="utf-8")
        echo = build_config({"taxonomy": "fam.txt"}, base_dir=tmp_path).echo()
        assert echo["taxonomy"] == str(tmp_path / "fam.txt")

    def test_every_default_key_appears(self):
        echo = build_config({}).echo()
        assert set(DEFAULTS) <= set(echo)

    def test_defaults_echo_literally(self):
        assert build_config({}).echo() == {
            "copies": "1",
            "gmm.cov_floor": "1e-06",
            "gmm.covariance": "diagonal",
            "gmm.max_iter": "200",
            "gmm.tol": "1e-06",
            "k.family": "auto",
            "k.multi": "auto",
            "k.single": "auto",
            "lam": "0.5,0.5",
            "oov": "zero",
            "ot.epsilon": "0.1",
            "ot.eta": "0.001",
            "ot.max_iter": "1000",
            "ot.power": "1.0",
            "ot.tail": "300",
            "ot.tol": "1e-09",
            "pos.dim": "17",
            "pos.seed": "0",
            "rho": "0.4,0.2,0.4",
            "seed": "0",
        }

    def test_gmm_template_carries_the_run_seed(self):
        gmm = build_config({"seed": "7"}).gmm
        assert gmm.seed == 7 and gmm.k == 1

    def test_readme_documents_every_default(self):
        """Each key of the README's Configuration table, grouped rows split
        on ' / ', shows the default that the dataclasses define."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for line in table.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) != 3 or not cells[0].startswith("`"):
                continue
            keys = [k.strip("`") for k in cells[0].split(" / ")]
            defaults = [d.strip("`") for d in cells[1].split(" / ")]
            if len(defaults) == 1:
                defaults *= len(keys)
            documented.update(zip(keys, defaults))
        for key, default in DEFAULTS.items():
            assert documented.get(key) == default, key


class TestLoadConfig:
    def test_no_file_just_defaults(self):
        cfg = load_config(None)
        assert cfg.seed == 0
        assert cfg.taxonomy_path is None

    def test_precedence_file_then_set_then_seed(self, tmp_path):
        path = write(tmp_path, "seed = 1\ncopies = 2\n")
        cfg = load_config(str(path), overrides={"seed": "5", "copies": "4"}, seed=9)
        assert cfg.seed == 9
        assert cfg.copies == 4

    def test_overrides_without_file(self):
        cfg = load_config(None, overrides={"ot.eta": "0.01"})
        assert cfg.ot.eta == 0.01

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        (tmp_path / "fam.txt").write_text("f: aa\n", encoding="utf-8")
        path = write(tmp_path, "taxonomy = fam.txt\n")
        cfg = load_config(str(path))
        assert cfg.taxonomy_path.exists()
        assert cfg.taxonomy_path.parent == tmp_path.resolve()

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(None, overrides={"nope": "1"})
