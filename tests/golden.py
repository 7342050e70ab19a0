"""Frozen expected values for the regression and acceptance suites.

TABLE1 and TABLE2_* are the published golden tables (signed real counts).
COMPLEX_P3_N / COMPLEX_P3_NTILDE hold the first six complex P^3 counts,
frozen from the closed-form series after cross-checking the classical values
(lines through 2 points, twisted cubics through 6 points, 105 quintics
through 10 points, ...).  KONTSEVICH_P2 and SCHUBERT_P3_LINES are taken
from the literature, not from this package.
"""

from __future__ import annotations

# d -> N^R_d: signed count of real degree-d rational curves through d
# conjugate point-pairs in P^3.
TABLE1 = {
    1: 1,
    3: 1,
    5: 5,
    7: 85,
    9: 1993,
    11: 136457,
    13: 3991693,
    15: 1580831965,
    17: -129358296175,
    19: 106335656443537,
    21: -39705915765949931,
    23: 27364388694945255653,
    25: -19263282511829476981415,
    27: 17458116427845844069499545,
    29: -18101279473337469331178336611,
    31: 22138019795038729862257691515501,
}

# (d, (a, b)) -> <5^a 3^b>_d of P^5, all dimension-balanced rows for d <= 9.
TABLE2_P5 = {
    (1, (1, 0)): 1,
    (1, (0, 2)): 1,
    (3, (2, 1)): -1,
    (3, (1, 3)): -3,
    (3, (0, 5)): -5,
    (5, (4, 0)): 1,
    (5, (3, 2)): 1,
    (5, (2, 4)): -7,
    (5, (1, 6)): 93,
    (5, (0, 8)): 12417,
    (7, (5, 1)): -23,
    (7, (4, 3)): -213,
    (7, (3, 5)): -2679,
    (7, (2, 7)): -23001,
    (7, (1, 9)): 874089,
    (7, (0, 11)): 90271011,
    (9, (7, 0)): 21,
    (9, (6, 2)): -503,
    (9, (5, 4)): -16399,
    (9, (4, 6)): -394863,
    (9, (3, 8)): -6924579,
    (9, (2, 10)): 69060873,
    (9, (1, 12)): 19824606009,
    (9, (0, 14)): 1811570349393,
}

# (d, (a, b, c)) -> <7^a 5^b 3^c>_d of P^7, all rows for d <= 5.
TABLE2_P7 = {
    (1, (1, 0, 0)): 1,
    (1, (0, 1, 1)): 1,
    (1, (0, 0, 3)): 1,
    (3, (2, 0, 1)): -1,
    (3, (1, 2, 0)): -1,
    (3, (1, 1, 2)): -3,
    (3, (1, 0, 4)): -5,
    (3, (0, 3, 1)): -3,
    (3, (0, 2, 3)): -1,
    (3, (0, 1, 5)): 89,
    (3, (0, 0, 7)): 1155,
    (5, (3, 1, 0)): 1,
    (5, (3, 0, 2)): 1,
    (5, (2, 2, 1)): -3,
    (5, (2, 1, 3)): -27,
    (5, (2, 0, 5)): -175,
    (5, (1, 4, 0)): -11,
    (5, (1, 3, 2)): -71,
    (5, (1, 2, 4)): -239,
    (5, (1, 1, 6)): 2181,
    (5, (1, 0, 8)): 75405,
    (5, (0, 5, 1)): -55,
    (5, (0, 4, 3)): 349,
    (5, (0, 3, 5)): 20589,
    (5, (0, 2, 7)): 438481,
    (5, (0, 1, 9)): 7937169,
    (5, (0, 0, 11)): 139758309,
}

# d -> N_d (complex count through 2d points) and Ntilde_d (through 2 lines
# and 2d-1 points) in P^3, for d <= 6.
COMPLEX_P3_N = {1: 1, 2: 0, 3: 1, 4: 4, 5: 105, 6: 2576}
COMPLEX_P3_NTILDE = {1: 1, 2: 1, 3: 5, 4: 58, 5: 1265, 6: 44416}

# d -> Kontsevich's N_d: rational plane curves of degree d through 3d - 1
# general points, i.e. <H^2, ..., H^2>_d on P^2 (Kontsevich-Manin 1994).
KONTSEVICH_P2 = {
    1: 1,
    2: 1,
    3: 12,
    4: 620,
    5: 87304,
    6: 26312976,
    7: 14616808192,
    8: 13525751027392,
}

# d -> rational space curves of degree d in P^3 meeting 4d general lines,
# i.e. <H^2, ..., H^2>_d on P^3: 2 lines, 92 conics and 80,160 twisted cubics
# (Schubert, Kalkuel der abzaehlenden Geometrie, 1879).
SCHUBERT_P3_LINES = {1: 2, 2: 92, 3: 80160}
