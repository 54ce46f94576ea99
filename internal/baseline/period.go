package baseline

// Scan is the reference period scan: the string-key scan period.Detect ran
// before states carried fingerprints. keys[t] is the canonical rendering of
// state t; c is the database's maximum temporal depth, G the certificate
// width and hmax the maximum rule head depth (period.Lookback and
// period.MaxHeadDepth). It returns the minimal certified period — smallest
// p, then smallest base — with the evidence window 0..len(keys)-1.
func Scan(keys []string, c, G, hmax int) (base, p int, ok bool) {
	m := len(keys) - 1
	for p := 1; c+1+p+G <= m; p++ {
		if m-p+1 < hmax {
			break
		}
		b := -1
		for t := m - p; t >= c+1; t-- {
			if keys[t] != keys[t+p] {
				break
			}
			b = t
		}
		if b >= 0 && b+p+G <= m {
			return b, p, true
		}
	}
	return 0, 0, false
}

// Detection is what Detect found: the minimal certified period (Base, P),
// zero when OK is false, and the window schedule it walked.
type Detection struct {
	Base, P int
	Window  int // the last window scanned
	Grown   int // window doublings
	OK      bool
}

// Detect runs Scan on period.Detect's window schedule: start at
// max(2c+4G+4, 2hmax+4, 16), double until a period is certified, give up
// once a window of maxWindow has been scanned. keys(m) evaluates the model
// on 0..m and returns the canonical rendering of each state.
func Detect(keys func(m int) []string, c, G, hmax, maxWindow int) Detection {
	m := max(2*c+4*G+4, 2*hmax+4, 16)
	for d := (Detection{}); ; d.Grown++ {
		d.Window = min(m, maxWindow)
		if d.Base, d.P, d.OK = Scan(keys(d.Window), c, G, hmax); d.OK || d.Window >= maxWindow {
			return d
		}
		m = 2 * d.Window
	}
}
