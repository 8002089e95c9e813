// Package metric renders a stats snapshot in the Prometheus text
// exposition format, so a service's /metrics and its JSON /stats are two
// encodings of one value and each series is declared once, as a field
// of the snapshot struct tagged
//
//	metric:"<name>,counter|gauge[,label=<key>]" help:"<text>"
//
// Integers render as counters (%d) or gauges (%g); floats, bools (0/1)
// and slices (their length) as gauges. Nested structs are walked in
// place and nil pointers skipped. A map[string]T adds the label <key>
// (a map of structs needs only metric:"label=<key>") with one series
// per key in sorted order. A Histogram field renders as a histogram.
// Fields without a metric tag are not exported.
package metric

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
)

// ContentType is the Content-Type of the text Write produces.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Histogram is a bucketed distribution snapshot.
type Histogram struct {
	// Bounds are the bucket upper bounds, ascending.
	Bounds []float64 `json:"bounds"`
	// Counts are cumulative: Counts[i] observations fell at or below
	// Bounds[i]; the one extra final entry is the +Inf bucket.
	Counts []uint64 `json:"counts"`
	Sum    float64  `json:"sum"`
	Count  uint64   `json:"count"`
}

// Write renders snapshot, a struct or a pointer to one. Each family's
// HELP and TYPE lines precede all its series, even when a map of
// structs contributes them key by key.
func Write(w io.Writer, snapshot any) error {
	r := renderer{byName: map[string]*family{}}
	r.walk(reflect.Indirect(reflect.ValueOf(snapshot)), nil)
	bw := bufio.NewWriter(w)
	for _, f := range r.families {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range f.samples {
			bw.WriteString(s)
		}
	}
	return bw.Flush()
}

type family struct {
	name, kind, help string
	samples          []string
}

type renderer struct {
	families []*family
	byName   map[string]*family
}

func (r *renderer) add(f family, name string, labels []string, value string) {
	fam := r.byName[f.name]
	if fam == nil {
		fam = &f
		r.byName[f.name] = fam
		r.families = append(r.families, fam)
	}
	if len(labels) > 0 {
		name += "{" + strings.Join(labels, ",") + "}"
	}
	fam.samples = append(fam.samples, name+" "+value+"\n")
}

func (r *renderer) walk(v reflect.Value, labels []string) {
	for i := 0; i < v.NumField(); i++ {
		sf, fv := v.Type().Field(i), v.Field(i)
		if !sf.IsExported() {
			continue
		}
		f, label := family{help: sf.Tag.Get("help")}, ""
		for j, part := range strings.Split(sf.Tag.Get("metric"), ",") {
			switch {
			case strings.HasPrefix(part, "label="):
				label = strings.TrimPrefix(part, "label=")
			case j == 0:
				f.name = part
			default:
				f.kind = part
			}
		}
		if fv.Kind() == reflect.Pointer {
			if fv.IsNil() {
				continue
			}
			fv = fv.Elem()
		}
		switch h, isHist := fv.Interface().(Histogram); {
		case isHist:
			f.kind = "histogram"
			for b, n := range h.Counts {
				le := "+Inf"
				if b < len(h.Bounds) {
					le = fmt.Sprintf("%g", h.Bounds[b])
				}
				r.add(f, f.name+"_bucket", with(labels, "le", le), fmt.Sprint(n))
			}
			r.add(f, f.name+"_sum", labels, fmt.Sprintf("%g", h.Sum))
			r.add(f, f.name+"_count", labels, fmt.Sprint(h.Count))
		case fv.Kind() == reflect.Struct:
			r.walk(fv, labels)
		case fv.Kind() == reflect.Map:
			keys := fv.MapKeys()
			sort.Slice(keys, func(a, b int) bool { return keys[a].String() < keys[b].String() })
			for _, k := range keys {
				kl := with(labels, label, k.String())
				if e := fv.MapIndex(k); e.Kind() == reflect.Struct {
					r.walk(e, kl)
				} else if f.name != "" {
					r.add(f, f.name, kl, value(f.kind, e))
				}
			}
		case f.name != "":
			r.add(f, f.name, labels, value(f.kind, fv))
		}
	}
}

// with returns labels plus key="val", leaving labels' backing array alone.
func with(labels []string, key, val string) []string {
	return append(labels[:len(labels):len(labels)], fmt.Sprintf("%s=%q", key, val))
}

// value formats one scalar: integer counters exactly, everything else
// as a float gauge.
func value(kind string, v reflect.Value) string {
	var x float64
	switch {
	case v.CanInt() && kind == "counter":
		return fmt.Sprint(v.Int())
	case v.CanUint() && kind == "counter":
		return fmt.Sprint(v.Uint())
	case v.CanInt():
		x = float64(v.Int())
	case v.CanUint():
		x = float64(v.Uint())
	case v.CanFloat():
		x = v.Float()
	case v.Kind() == reflect.Slice:
		x = float64(v.Len())
	case v.Kind() == reflect.Bool && v.Bool():
		x = 1
	}
	return fmt.Sprintf("%g", x)
}
