package core

import (
	"testing"

	"repro/internal/si"
)

func BenchmarkDynamicSize(b *testing.B) {
	p := paperParams()
	dl := dlRR()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.DynamicSize(dl, 1+i%p.N, i%5)
	}
}

func BenchmarkDynamicSizeClosedForm(b *testing.B) {
	p := paperParams()
	dl := dlRR()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.DynamicSizeClosedForm(dl, 1+i%p.N, i%5)
	}
}

func BenchmarkTableSize(b *testing.B) {
	p := paperParams()
	tab := NewTable(p, ConstDL(dlRR()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.Size(1+i%p.N, i%5)
	}
}

func BenchmarkEstimatorKLog(b *testing.B) {
	e := NewEstimator(si.Minutes(40))
	// A realistic trailing window: a few hundred arrivals.
	t := si.Seconds(0)
	for i := 0; i < 400; i++ {
		t += 5
		e.RecordArrival(t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.KLog(t, 120)
	}
}

func BenchmarkBookSetAndMins(b *testing.B) {
	book := NewBook()
	for i := 0; i < 79; i++ {
		book.Set(i, Allocation{N: 1 + i%79, K: i % 5})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		book.Set(i%79, Allocation{N: 1 + i%79, K: i % 5})
		_ = book.MinNK()
		_ = book.MinK()
	}
}
