module Value = Casper_common.Value
module W = Workload
module Rng = Casper_common.Rng

let b ?(sample = 3_000) name source main gen : Suite.benchmark =
  {
    Suite.name;
    suite = "Fiji";
    source;
    main_method = main;
    workload =
      { Suite.gen; sample_n = sample; nominal_n = 500_000_000.0; passes = 1 };
  }

let channels rng ~n =
  [
    ("r", W.ints rng ~n ~lo:0 ~hi:255);
    ("g", W.ints rng ~n ~lo:0 ~hi:255);
    ("b", W.ints rng ~n ~lo:0 ~hi:255);
    ("n", Value.Int n);
    ("t", Value.Int 128);
  ]

(* 6 fragments, all translated: pure per-pixel transforms *)
let red_to_magenta =
  b "RedToMagenta"
    {|
int[] magentaBlue(int[] r, int[] g, int[] b, int n) {
  int[] outB = new int[n];
  for (int i = 0; i < n; i++)
    outB[i] = (r[i] > g[i] + b[i]) ? r[i] : b[i];
  return outB;
}
int[] copyRed(int[] r2, int n2) {
  int[] outR = new int[n2];
  for (int i = 0; i < n2; i++)
    outR[i] = r2[i];
  return outR;
}
int[] grayscale(int[] r3, int[] g3, int[] b3, int n3) {
  int[] gray = new int[n3];
  for (int i = 0; i < n3; i++)
    gray[i] = (r3[i] + g3[i] + b3[i]) / 3;
  return gray;
}
int[] invert(int[] r4, int n4) {
  int[] inv = new int[n4];
  for (int i = 0; i < n4; i++)
    inv[i] = 255 - r4[i];
  return inv;
}
int[] brighten(int[] r5, int n5) {
  int[] bright = new int[n5];
  for (int i = 0; i < n5; i++)
    bright[i] = Math.min(255, r5[i] * 2);
  return bright;
}
int[] redMask(int[] r6, int n6, int t6) {
  int[] mask = new int[n6];
  for (int i = 0; i < n6; i++)
    mask[i] = (r6[i] > t6) ? 1 : 0;
  return mask;
}
|}
    "magentaBlue"
    (fun rng ~n ->
      channels rng ~n
      @ [
          ("r2", W.ints rng ~n ~lo:0 ~hi:255);
          ("n2", Value.Int n);
          ("r3", W.ints rng ~n ~lo:0 ~hi:255);
          ("g3", W.ints rng ~n ~lo:0 ~hi:255);
          ("b3", W.ints rng ~n ~lo:0 ~hi:255);
          ("n3", Value.Int n);
          ("r4", W.ints rng ~n ~lo:0 ~hi:255);
          ("n4", Value.Int n);
          ("r5", W.ints rng ~n ~lo:0 ~hi:255);
          ("n5", Value.Int n);
          ("r6", W.ints rng ~n ~lo:0 ~hi:255);
          ("n6", Value.Int n);
          ("t6", Value.Int 128);
        ])

(* 8 fragments, all translated: time-window statistics over frames *)
let trails =
  b "Trails"
    {|
int[] trailAvg(int[] f0, int[] f1, int[] f2, int n) {
  int[] avg = new int[n];
  for (int i = 0; i < n; i++)
    avg[i] = (f0[i] + f1[i] + f2[i]) / 3;
  return avg;
}
int[] trailMax(int[] fa, int[] fb, int[] fc, int m) {
  int[] mx = new int[m];
  for (int i = 0; i < m; i++)
    mx[i] = Math.max(fa[i], Math.max(fb[i], fc[i]));
  return mx;
}
int[] frameDiff(int[] fd, int[] fe, int p) {
  int[] diff = new int[p];
  for (int i = 0; i < p; i++)
    diff[i] = Math.abs(fd[i] - fe[i]);
  return diff;
}
int totalDiff(int[] ff, int[] fg, int q) {
  int total = 0;
  for (int i = 0; i < q; i++)
    total += Math.abs(ff[i] - fg[i]);
  return total;
}
int motionCount(int[] fh, int[] fi, int s, int thresh) {
  int moving = 0;
  for (int i = 0; i < s; i++) {
    if (Math.abs(fh[i] - fi[i]) > thresh)
      moving += 1;
  }
  return moving;
}
double[] weightedBlend(int[] fj, int[] fk, int u, double w0, double w1) {
  double[] blend = new double[u];
  for (int i = 0; i < u; i++)
    blend[i] = fj[i] * w0 + fk[i] * w1;
  return blend;
}
int brightest(int[] fl, int v) {
  int peak = 0;
  for (int i = 0; i < v; i++) {
    if (fl[i] > peak)
      peak = fl[i];
  }
  return peak;
}
int totalIntensity(int[] fm, int w) {
  int total2 = 0;
  for (int i = 0; i < w; i++)
    total2 += fm[i];
  return total2;
}
|}
    "trailAvg"
    (fun rng ~n ->
      let frame () = W.ints rng ~n ~lo:0 ~hi:255 in
      [
        ("f0", frame ()); ("f1", frame ()); ("f2", frame ());
        ("n", Value.Int n);
        ("fa", frame ()); ("fb", frame ()); ("fc", frame ());
        ("m", Value.Int n);
        ("fd", frame ()); ("fe", frame ()); ("p", Value.Int n);
        ("ff", frame ()); ("fg", frame ()); ("q", Value.Int n);
        ("fh", frame ()); ("fi", frame ()); ("s", Value.Int n);
        ("thresh", Value.Int 16);
        ("fj", frame ()); ("fk", frame ()); ("u", Value.Int n);
        ("w0", Value.Float 0.7); ("w1", Value.Float 0.3);
        ("fl", frame ()); ("v", Value.Int n);
        ("fm", frame ()); ("w", Value.Int n);
      ])

(* 9 fragments: 6 translated, 3 synthesis timeouts (median-of-three via
   statement-level selection, argmax with its position, second maximum —
   all need reductions outside the IR's λr space) *)
let temporal_median =
  b "TemporalMedian"
    {|
int[] median3(int[] p0, int[] p1, int[] p2, int n) {
  int[] med = new int[n];
  for (int i = 0; i < n; i++) {
    int m = p0[i];
    if (p0[i] < p1[i]) {
      if (p1[i] < p2[i]) m = p1[i];
      else if (p0[i] < p2[i]) m = p2[i];
      else m = p0[i];
    } else {
      if (p0[i] < p2[i]) m = p0[i];
      else if (p1[i] < p2[i]) m = p2[i];
      else m = p1[i];
    }
    med[i] = m;
  }
  return med;
}
int[] bgUpdate(int[] pa, int[] bg0, int m2) {
  int[] bg = new int[m2];
  for (int i = 0; i < m2; i++)
    bg[i] = (pa[i] > bg0[i]) ? bg0[i] + 1 : bg0[i] - 1;
  return bg;
}
int fgCount(int[] pb, int[] bgb, int m3, int t3) {
  int fg = 0;
  for (int i = 0; i < m3; i++) {
    if (Math.abs(pb[i] - bgb[i]) > t3)
      fg += 1;
  }
  return fg;
}
int[] fgMask(int[] pc, int[] bgc, int m4, int t4) {
  int[] mask2 = new int[m4];
  for (int i = 0; i < m4; i++)
    mask2[i] = (Math.abs(pc[i] - bgc[i]) > t4) ? 1 : 0;
  return mask2;
}
int fgIntensity(int[] pd, int[] bgd, int m5, int t5) {
  int acc = 0;
  for (int i = 0; i < m5; i++) {
    if (Math.abs(pd[i] - bgd[i]) > t5)
      acc += pd[i];
  }
  return acc;
}
int minIntensity(int[] pe, int m6) {
  int lo = 1000000;
  for (int i = 0; i < m6; i++) {
    if (pe[i] < lo)
      lo = pe[i];
  }
  return lo;
}
int maxIntensity(int[] pf, int m7) {
  int hi = -1000000;
  for (int i = 0; i < m7; i++) {
    if (pf[i] > hi)
      hi = pf[i];
  }
  return hi;
}
int argmaxIntensity(int[] pg, int m8) {
  int best = -1000000;
  int bestIdx = 0;
  for (int i = 0; i < m8; i++) {
    if (pg[i] > best) {
      best = pg[i];
      bestIdx = i;
    }
  }
  return bestIdx;
}
int secondMax(int[] ph, int m9) {
  int first = -1000000;
  int second = -1000000;
  for (int i = 0; i < m9; i++) {
    if (ph[i] > first) {
      second = first;
      first = ph[i];
    } else if (ph[i] > second) {
      second = ph[i];
    }
  }
  return second;
}
|}
    "median3"
    (fun rng ~n ->
      let frame () = W.ints rng ~n ~lo:0 ~hi:255 in
      [
        ("p0", frame ()); ("p1", frame ()); ("p2", frame ());
        ("n", Value.Int n);
        ("pa", frame ()); ("bg0", frame ()); ("m2", Value.Int n);
        ("pb", frame ()); ("bgb", frame ()); ("m3", Value.Int n);
        ("t3", Value.Int 24);
        ("pc", frame ()); ("bgc", frame ()); ("m4", Value.Int n);
        ("t4", Value.Int 24);
        ("pd", frame ()); ("bgd", frame ()); ("m5", Value.Int n);
        ("t5", Value.Int 24);
        ("pe", frame ()); ("m6", Value.Int n);
        ("pf", frame ()); ("m7", Value.Int n);
        ("pg", frame ()); ("m8", Value.Int n);
        ("ph", frame ()); ("m9", Value.Int n);
      ])

(* 12 fragments: 3 translated (incl. the Anscombe transform of Fig 7a),
   6 synthesis timeouts, 3 unmodeled ImageJ methods *)
let nl_means =
  b "NLMeans"
    {|
double noiseEnergy(double[] px, int n) {
  double sigma = 0;
  for (int i = 0; i < n; i++)
    sigma += px[i] * px[i];
  return sigma;
}
double[] anscombe(double[] pa, int na) {
  double[] stab = new double[na];
  for (int i = 0; i < na; i++)
    stab[i] = 2.0 * Math.sqrt(pa[i] + 0.375);
  return stab;
}
int saturatedCount(double[] pb, int nb, double cap) {
  int sat = 0;
  for (int i = 0; i < nb; i++) {
    if (pb[i] >= cap)
      sat += 1;
  }
  return sat;
}
int bestWeightIdx(double[] wts, int nw) {
  double bw = -1000000.0;
  int bwi = 0;
  for (int i = 0; i < nw; i++) {
    if (wts[i] > bw) {
      bw = wts[i];
      bwi = i;
    }
  }
  return bwi;
}
double bestPatchScore(double[] ps, int np) {
  double bs = -1000000.0;
  int bsi = 0;
  for (int i = 0; i < np; i++) {
    if (ps[i] > bs) {
      bs = ps[i];
      bsi = i;
    }
  }
  return bs + bsi;
}
int darkestIdx(double[] pd2, int nd) {
  double dk = 1000000.0;
  int dki = 0;
  for (int i = 0; i < nd; i++) {
    if (pd2[i] < dk) {
      dk = pd2[i];
      dki = i;
    }
  }
  return dki;
}
double medianWeight(double[] w3, int n3) {
  double m1 = -1000000.0;
  double m2 = -1000000.0;
  for (int i = 0; i < n3; i++) {
    if (w3[i] > m1) {
      m2 = m1;
      m1 = w3[i];
    } else if (w3[i] > m2) {
      m2 = w3[i];
    }
  }
  return m2;
}
double adaptiveCut(double[] w4, int n4, double lim) {
  double cut = 0;
  double run = 0;
  for (int i = 0; i < n4; i++) {
    run = run + w4[i];
    if (run > lim) cut = run - lim;
  }
  return cut;
}
double trailingEnergy(double[] w5, int n5) {
  double e1 = 0;
  double last = 0;
  for (int i = 0; i < n5; i++) {
    e1 += w5[i] * last;
    last = w5[i];
  }
  return e1;
}
double gaussianWeightSum(double[] d1, int ng) {
  double acc1 = 0;
  for (int i = 0; i < ng; i++)
    acc1 += ImageJ.gaussianKernel(d1[i]);
  return acc1;
}
double calibratedSum(double[] d2, int nc) {
  double acc2 = 0;
  for (int i = 0; i < nc; i++)
    acc2 += ImageJ.getCalibratedValue(d2[i]);
  return acc2;
}
double processorMean(double[] d3, int nm) {
  double acc3 = 0;
  for (int i = 0; i < nm; i++)
    acc3 += ImageJ.getPixelValue(d3[i]);
  return acc3 / nm;
}
|}
    "anscombe"
    (fun rng ~n ->
      let img () = W.floats rng ~n ~lo:0.0 ~hi:255.0 in
      [
        ("px", img ()); ("n", Value.Int n);
        ("pa", img ()); ("na", Value.Int n);
        ("pb", img ()); ("nb", Value.Int n); ("cap", Value.Float 250.0);
        ("wts", img ()); ("nw", Value.Int n);
        ("ps", img ()); ("np", Value.Int n);
        ("pd2", img ()); ("nd", Value.Int n);
        ("w3", img ()); ("n3", Value.Int n);
        ("w4", img ()); ("n4", Value.Int n); ("lim", Value.Float 100.0);
        ("w5", img ()); ("n5", Value.Int n);
        ("d1", img ()); ("ng", Value.Int n);
        ("d2", img ()); ("nc", Value.Int n);
        ("d3", img ()); ("nm", Value.Int n);
      ])

let all : Suite.benchmark list =
  [ red_to_magenta; trails; temporal_median; nl_means ]
