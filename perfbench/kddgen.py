"""Seeded generator of KDD Cup 99 shaped connection records.

Each record has the 41 numeric features of the KDD Cup 99 layout, with
``protocol_type``, ``service`` and ``flag`` already integer-coded (as the
netsom CLI expects), followed by a ``label`` column holding ``normal`` or
``anomalous``. Normal traffic is a mixture of service profiles with
heavy-tailed byte counts; anomalies follow the attack families of the
original data set (SYN flood, smurf, port sweep, password guessing, buffer
overflow) plus exfiltration records whose values lie outside any training
range, so that min-max clamping and constant columns matter.

Everything is drawn from a ``numpy.random.Generator``; the same seed gives
the same arrays and the same CSV bytes.
"""

from __future__ import annotations

import numpy as np

FEATURES = (
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes",
    "land", "wrong_fragment", "urgent", "hot", "num_failed_logins", "logged_in",
    "num_compromised", "root_shell", "su_attempted", "num_root",
    "num_file_creations", "num_shells", "num_access_files", "num_outbound_cmds",
    "is_host_login", "is_guest_login", "count", "srv_count", "serror_rate",
    "srv_serror_rate", "rerror_rate", "srv_rerror_rate", "same_srv_rate",
    "diff_srv_rate", "srv_diff_host_rate", "dst_host_count",
    "dst_host_srv_count", "dst_host_same_srv_rate", "dst_host_diff_srv_rate",
    "dst_host_same_src_port_rate", "dst_host_srv_diff_host_rate",
    "dst_host_serror_rate", "dst_host_srv_serror_rate", "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
)
COL = {name: i for i, name in enumerate(FEATURES)}
DIM = len(FEATURES)

# Columns holding a share in [0, 1], written with two decimals as in KDD.
RATE_COLUMNS = tuple(i for i, name in enumerate(FEATURES) if name.endswith("_rate"))

TCP, UDP, ICMP = 0, 1, 2
SERVICE = {"http": 22, "smtp": 47, "ftp_data": 17, "domain_u": 11, "ecr_i": 13,
           "private": 41, "telnet": 54}
FLAG = {"REJ": 1, "RSTO": 2, "S0": 5, "SF": 9}

# (name, share, protocol, service, flag, src_bytes log-mean, log-sd,
#  dst_bytes log-mean, log-sd, logged_in)
NORMAL_PROFILES = (
    ("http", 0.55, TCP, "http", "SF", 5.5, 0.5, 7.5, 1.2, 1),
    ("smtp", 0.12, TCP, "smtp", "SF", 7.0, 0.8, 5.8, 0.4, 1),
    ("ftp_data", 0.08, TCP, "ftp_data", "SF", 6.5, 2.0, 0.0, 0.0, 1),
    ("domain_u", 0.12, UDP, "domain_u", "SF", 3.8, 0.2, 4.5, 0.4, 0),
    ("ecr_i", 0.05, ICMP, "ecr_i", "SF", 3.5, 0.3, 0.0, 0.0, 0),
    ("private", 0.05, UDP, "private", "SF", 3.4, 0.5, 3.9, 0.6, 0),
    ("telnet", 0.03, TCP, "telnet", "SF", 6.0, 1.0, 7.0, 1.5, 1),
)

# Share of each anomaly family among anomalous records.
ANOMALY_MIX = (
    ("neptune", 0.30),
    ("smurf", 0.20),
    ("portsweep", 0.15),
    ("guess_passwd", 0.10),
    ("buffer_overflow", 0.05),
    ("exfiltration", 0.20),
)


def records(rng: np.random.Generator, n_normal: int, n_anomalous: int):
    """``n_normal`` normal and ``n_anomalous`` anomalous records, shuffled.

    Returns ``(features, labels)``: a (n, 41) float64 array and a boolean
    array, True for anomalous.
    """
    parts = [normal(rng, n_normal), anomalous(rng, n_anomalous)]
    x = np.concatenate(parts)
    labels = np.concatenate([np.zeros(n_normal, bool), np.ones(n_anomalous, bool)])
    order = rng.permutation(len(x))
    return x[order], labels[order]


def normal(rng: np.random.Generator, n: int) -> np.ndarray:
    x = np.zeros((n, DIM))
    shares = np.array([p[1] for p in NORMAL_PROFILES])
    which = rng.choice(len(NORMAL_PROFILES), size=n, p=shares / shares.sum())
    for k, (_, _, proto, service, flag, sm, ss, dm, ds, logged) in enumerate(NORMAL_PROFILES):
        rows = np.nonzero(which == k)[0]
        m = len(rows)
        x[rows, COL["protocol_type"]] = proto
        x[rows, COL["service"]] = SERVICE[service]
        x[rows, COL["flag"]] = FLAG[flag]
        x[rows, COL["src_bytes"]] = np.rint(rng.lognormal(sm, ss, m))
        if dm > 0.0:
            x[rows, COL["dst_bytes"]] = np.rint(rng.lognormal(dm, ds, m))
        x[rows, COL["logged_in"]] = logged
        if service in ("ftp_data", "telnet"):
            x[rows, COL["duration"]] = np.rint(rng.exponential(30.0, m))
        if service in ("http", "telnet"):
            x[rows, COL["hot"]] = rng.poisson(0.3 if service == "telnet" else 0.02, m)
        if service == "telnet":
            x[rows, COL["num_file_creations"]] = rng.poisson(0.1, m)
            x[rows, COL["num_access_files"]] = rng.poisson(0.05, m)
    lam = np.where(x[:, COL["protocol_type"]] == TCP, 6.0, 40.0)
    x[:, COL["count"]] = np.minimum(rng.poisson(lam), 511)
    x[:, COL["srv_count"]] = np.minimum(x[:, COL["count"]] + rng.poisson(2.0, n), 511)
    x[:, COL["serror_rate"]] = _rate(rng.beta(0.2, 30.0, n))
    x[:, COL["srv_serror_rate"]] = _rate(rng.beta(0.2, 30.0, n))
    x[:, COL["rerror_rate"]] = _rate(rng.beta(0.3, 20.0, n))
    x[:, COL["srv_rerror_rate"]] = _rate(rng.beta(0.3, 20.0, n))
    x[:, COL["same_srv_rate"]] = _rate(rng.beta(30.0, 1.0, n))
    x[:, COL["diff_srv_rate"]] = _rate(rng.beta(0.5, 20.0, n))
    x[:, COL["srv_diff_host_rate"]] = _rate(rng.beta(1.0, 8.0, n))
    x[:, COL["dst_host_count"]] = rng.integers(1, 256, n)
    x[:, COL["dst_host_srv_count"]] = np.minimum(
        255, np.rint(x[:, COL["dst_host_count"]] * rng.beta(8.0, 1.0, n)) + rng.integers(0, 40, n)
    )
    x[:, COL["dst_host_same_srv_rate"]] = _rate(rng.beta(10.0, 1.0, n))
    x[:, COL["dst_host_diff_srv_rate"]] = _rate(rng.beta(0.5, 15.0, n))
    x[:, COL["dst_host_same_src_port_rate"]] = _rate(rng.beta(0.6, 6.0, n))
    x[:, COL["dst_host_srv_diff_host_rate"]] = _rate(rng.beta(0.5, 12.0, n))
    x[:, COL["dst_host_serror_rate"]] = _rate(rng.beta(0.2, 40.0, n))
    x[:, COL["dst_host_srv_serror_rate"]] = _rate(rng.beta(0.2, 40.0, n))
    x[:, COL["dst_host_rerror_rate"]] = _rate(rng.beta(0.3, 25.0, n))
    x[:, COL["dst_host_srv_rerror_rate"]] = _rate(rng.beta(0.3, 25.0, n))
    return x


def anomalous(rng: np.random.Generator, n: int) -> np.ndarray:
    """Anomalies in the fixed family proportions of ``ANOMALY_MIX``."""
    counts = [int(n * share) for _, share in ANOMALY_MIX]
    counts[0] += n - sum(counts)
    blocks = [_FAMILIES[name](rng, m) for (name, _), m in zip(ANOMALY_MIX, counts)]
    return np.concatenate(blocks) if blocks else np.zeros((0, DIM))


def _neptune(rng, n):
    x = normal(rng, n)
    x[:, COL["protocol_type"]] = TCP
    x[:, COL["service"]] = rng.integers(0, 70, n)
    x[:, COL["flag"]] = FLAG["S0"]
    x[:, [COL["src_bytes"], COL["dst_bytes"], COL["logged_in"], COL["hot"], COL["duration"]]] = 0
    x[:, COL["count"]] = rng.integers(100, 512, n)
    x[:, COL["srv_count"]] = rng.integers(1, 30, n)
    for name in ("serror_rate", "srv_serror_rate", "dst_host_serror_rate",
                 "dst_host_srv_serror_rate"):
        x[:, COL[name]] = _rate(rng.uniform(0.9, 1.0, n))
    x[:, COL["same_srv_rate"]] = _rate(rng.uniform(0.0, 0.15, n))
    x[:, COL["diff_srv_rate"]] = _rate(rng.uniform(0.04, 0.1, n))
    x[:, COL["dst_host_count"]] = 255
    x[:, COL["dst_host_srv_count"]] = rng.integers(1, 30, n)
    x[:, COL["dst_host_same_srv_rate"]] = _rate(rng.uniform(0.0, 0.1, n))
    return x


def _smurf(rng, n):
    x = normal(rng, n)
    x[:, COL["protocol_type"]] = ICMP
    x[:, COL["service"]] = SERVICE["ecr_i"]
    x[:, COL["flag"]] = FLAG["SF"]
    x[:, COL["src_bytes"]] = rng.choice([520.0, 1032.0], n)
    x[:, [COL["dst_bytes"], COL["logged_in"], COL["hot"], COL["duration"]]] = 0
    x[:, COL["count"]] = 511
    x[:, COL["srv_count"]] = 511
    x[:, COL["same_srv_rate"]] = 1.0
    x[:, COL["dst_host_count"]] = 255
    x[:, COL["dst_host_srv_count"]] = 255
    x[:, COL["dst_host_same_srv_rate"]] = 1.0
    x[:, COL["dst_host_same_src_port_rate"]] = _rate(rng.uniform(0.9, 1.0, n))
    return x


def _portsweep(rng, n):
    x = normal(rng, n)
    x[:, COL["protocol_type"]] = TCP
    x[:, COL["service"]] = rng.integers(0, 70, n)
    x[:, COL["flag"]] = rng.choice([FLAG["REJ"], FLAG["RSTO"]], n)
    x[:, [COL["src_bytes"], COL["dst_bytes"], COL["logged_in"]]] = 0
    x[:, COL["duration"]] = rng.integers(0, 3, n) * 1000
    for name in ("rerror_rate", "srv_rerror_rate", "dst_host_rerror_rate",
                 "dst_host_srv_rerror_rate"):
        x[:, COL[name]] = _rate(rng.uniform(0.5, 1.0, n))
    x[:, COL["diff_srv_rate"]] = _rate(rng.uniform(0.5, 1.0, n))
    x[:, COL["dst_host_diff_srv_rate"]] = _rate(rng.uniform(0.5, 1.0, n))
    x[:, COL["dst_host_same_srv_rate"]] = _rate(rng.uniform(0.0, 0.2, n))
    return x


def _guess_passwd(rng, n):
    x = normal(rng, n)
    x[:, COL["protocol_type"]] = TCP
    x[:, COL["service"]] = SERVICE["telnet"]
    x[:, COL["flag"]] = rng.choice([FLAG["SF"], FLAG["RSTO"]], n)
    x[:, COL["duration"]] = rng.integers(0, 6, n)
    x[:, COL["src_bytes"]] = 125
    x[:, COL["dst_bytes"]] = 179
    x[:, COL["logged_in"]] = 0
    x[:, COL["num_failed_logins"]] = rng.integers(1, 6, n)
    x[:, COL["hot"]] = rng.integers(0, 3, n)
    x[:, COL["dst_host_count"]] = rng.integers(1, 10, n)
    x[:, COL["dst_host_srv_count"]] = rng.integers(1, 10, n)
    return x


def _buffer_overflow(rng, n):
    x = normal(rng, n)
    x[:, COL["protocol_type"]] = TCP
    x[:, COL["service"]] = SERVICE["telnet"]
    x[:, COL["flag"]] = FLAG["SF"]
    x[:, COL["duration"]] = rng.integers(50, 500, n)
    x[:, COL["src_bytes"]] = rng.integers(1000, 5000, n)
    x[:, COL["dst_bytes"]] = rng.integers(2000, 9000, n)
    x[:, COL["logged_in"]] = 1
    x[:, COL["hot"]] = rng.integers(1, 10, n)
    x[:, COL["root_shell"]] = 1
    x[:, COL["num_file_creations"]] = rng.integers(1, 5, n)
    x[:, COL["num_shells"]] = 1
    return x


def _exfiltration(rng, n):
    """Ordinary-looking records with values outside every training range.

    Half carry byte counts and durations far above the normal maximum,
    which min-max clamps to 1; the other half differ only in columns that
    are constant in normal traffic, which the normalizer maps to 0.
    """
    x = normal(rng, n)
    half = n // 2
    x[:half, COL["src_bytes"]] = np.rint(rng.uniform(1e8, 1e9, half))
    x[:half, COL["duration"]] = rng.integers(40000, 60000, half)
    x[half:, COL["num_outbound_cmds"]] = rng.integers(1, 10, n - half)
    x[half:, COL["is_host_login"]] = 1
    return x


_FAMILIES = {
    "neptune": _neptune,
    "smurf": _smurf,
    "portsweep": _portsweep,
    "guess_passwd": _guess_passwd,
    "buffer_overflow": _buffer_overflow,
    "exfiltration": _exfiltration,
}


def _rate(v: np.ndarray) -> np.ndarray:
    """Round shares to the two decimals the CSV text carries."""
    return np.round(np.clip(v, 0.0, 1.0), 2)


def write_csv(path, x: np.ndarray, labels: np.ndarray) -> None:
    """Write records with a header and a trailing ``label`` column.

    Integer-valued columns are written as integers and rates with two
    decimals.
    """
    row_format = ",".join("%.2f" if j in RATE_COLUMNS else "%d" for j in range(DIM)) + ",%s"
    names = np.where(labels, "anomalous", "normal").tolist()
    lines = [",".join(FEATURES) + ",label"]
    lines += [row_format % (*row, name) for row, name in zip(x.tolist(), names)]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
